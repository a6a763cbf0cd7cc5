package shard

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/storage"
)

// Hash64 maps a shard-key value onto the 64-bit hash ring. The base hash
// folds the value's canonical string form (FNV-1a, with the int64 fast path
// skipping the formatting allocation), then a splitmix64 finalizer mixes the
// entropy into the high bits — range ownership (Ranges.Owner) slices the
// ring from the top, so the top bits must avalanche as well as
// the bottom ones FNV feeds modulo reduction.
func Hash64(v any) uint64 {
	if i, ok := v.(int64); ok {
		return hashInt(i)
	}
	h := uint64(14695981039346656037)
	for _, c := range []byte(fmt.Sprintf("%v", v)) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return mix64(h)
}

// hashInt is Hash64 of an int64 key, which it never boxes: FNV-1a over the
// key's eight bytes, low byte first.
func hashInt(i int64) uint64 {
	h, u := uint64(14695981039346656037), uint64(i)
	for b := 0; b < 8; b++ {
		h, u = (h^(u&0xff))*1099511628211, u>>8
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// rangeBoundary returns ⌈i·2⁶⁴/n⌉, the inclusive lower bound of shard i's
// hash range in a fresh n-way map (the point where the high word of h·n
// first reaches i).
func rangeBoundary(i, n int) uint64 {
	if i == 0 {
		return 0
	}
	q, r := bits.Div64(uint64(i), 0, uint64(n))
	if r > 0 {
		q++
	}
	return q
}

// RangeEntry is one owned slice of the hash ring: entry k covers
// [Start_k, Start_{k+1}) — the last entry extends to the top of the ring.
type RangeEntry struct {
	Start uint64 // inclusive lower bound
	Owner int    // backend index owning the range
}

// Ranges is an immutable snapshot of hash-range ownership: a sorted,
// gap-free, non-overlapping cover of the full 64-bit ring, plus the
// generation counter that advances on every Split. Split is the only
// ownership change, so backend i of an n-backend cluster owns exactly one
// entry and the owners are 0..n−1. Routers swap whole snapshots atomically,
// so a reader always sees one consistent generation.
type Ranges struct {
	entries []RangeEntry
	gen     int64
	owners  []int // 0..len(entries)−1, built with the snapshot
}

// newRanges builds the snapshot over entries at generation gen.
func newRanges(entries []RangeEntry, gen int64) *Ranges {
	owners := make([]int, len(entries))
	for i := range owners {
		owners[i] = i
	}
	return &Ranges{entries: entries, gen: gen, owners: owners}
}

// NewRanges builds the generation-0 map of a fresh n-way cluster: shard i
// owns [⌈i·2⁶⁴/n⌉, ⌈(i+1)·2⁶⁴/n⌉) — the keys whose Hash64(v)·n has high
// word i (the multiplicative range reduction).
func NewRanges(n int) *Ranges {
	if n < 1 {
		n = 1
	}
	entries := make([]RangeEntry, n)
	for i := range entries {
		entries[i] = RangeEntry{Start: rangeBoundary(i, n), Owner: i}
	}
	return newRanges(entries, 0)
}

// Generation returns the number of Split steps this map is away from its
// generation-0 ancestor.
func (rg *Ranges) Generation() int64 { return rg.gen }

// Entries returns a copy of the range set in ring order.
func (rg *Ranges) Entries() []RangeEntry {
	out := make([]RangeEntry, len(rg.entries))
	copy(out, rg.entries)
	return out
}

// Owner returns the backend index owning hash h: the last entry whose
// Start is ≤ h.
func (rg *Ranges) Owner(h uint64) int {
	// sort.Search finds the first entry with Start > h; its predecessor owns h.
	i := sort.Search(len(rg.entries), func(k int) bool { return rg.entries[k].Start > h })
	return rg.entries[i-1].Owner
}

// OwnerOf returns the backend index owning a key value.
func (rg *Ranges) OwnerOf(v any) int { return rg.Owner(Hash64(v)) }

// ownerOfRow is OwnerOf of row rid's key in column col of v, read from the
// typed vector when the column has one (the copier's pick: no key is boxed).
func (rg *Ranges) ownerOfRow(v *storage.View, col, rid int) int {
	c := &v.Cols[col]
	if c.Ints != nil {
		return rg.Owner(hashInt(c.Ints[rid]))
	}
	return rg.OwnerOf(c.Any(rid))
}

// Owners returns the backend indices 0..n−1, every one of which owns a
// range — the scatter target set. The slice belongs to the snapshot: callers
// must not modify it.
func (rg *Ranges) Owners() []int { return rg.owners }

// span returns the width of entry k (0 means the full 2⁶⁴ ring).
func (rg *Ranges) span(k int) uint64 {
	var next uint64 // wraps to 0 for the last entry: 0-Start ≡ 2⁶⁴-Start
	if k+1 < len(rg.entries) {
		next = rg.entries[k+1].Start
	}
	return next - rg.entries[k].Start
}

// Split halves owner's range, keeping the lower half on owner and assigning
// the upper half to a new backend, len(entries) — the index the router
// appends it at — and returns the next-generation map plus the split point.
// The receiver is unchanged.
func (rg *Ranges) Split(owner int) (*Ranges, uint64, error) {
	k := slices.IndexFunc(rg.entries, func(e RangeEntry) bool { return e.Owner == owner })
	if k < 0 {
		return nil, 0, fmt.Errorf("shard: split: shard %d owns no range", owner)
	}
	sp := rg.span(k)
	half := sp / 2
	if sp == 0 { // the full ring
		half = 1 << 63
	}
	if half == 0 {
		return nil, 0, fmt.Errorf("shard: split: shard %d's range is a single hash", owner)
	}
	mid := rg.entries[k].Start + half
	entries := slices.Insert(slices.Clone(rg.entries), k+1, RangeEntry{Start: mid, Owner: len(rg.entries)})
	return newRanges(entries, rg.gen+1), mid, nil
}

// Validate checks the structural invariants the router depends on: a
// non-empty range set starting at hash 0, strictly increasing (no overlap,
// no gap — entry k ends exactly where entry k+1 starts), every owner a
// valid backend index below n.
func (rg *Ranges) Validate(n int) error {
	if len(rg.entries) == 0 {
		return fmt.Errorf("shard: ranges: empty range set")
	}
	if rg.entries[0].Start != 0 {
		return fmt.Errorf("shard: ranges: gap below first range start %#x", rg.entries[0].Start)
	}
	for k, e := range rg.entries {
		if k > 0 && e.Start <= rg.entries[k-1].Start {
			return fmt.Errorf("shard: ranges: entry %d start %#x does not advance past %#x (overlap or disorder)",
				k, e.Start, rg.entries[k-1].Start)
		}
		if e.Owner < 0 || e.Owner >= n {
			return fmt.Errorf("shard: ranges: entry %d owner %d out of [0,%d)", k, e.Owner, n)
		}
	}
	return nil
}
