package shard

import (
	"slices"
	"testing"
)

// FuzzPartition drives the range map through arbitrary split histories and
// checks, at every generation, that an arbitrary key hashes into exactly one
// owned range (by linear scan, independently of the binary-search Owner),
// that the structural invariants hold, that every backend 0..n−1 owns
// exactly one entry and Owners() is 0..n−1 ascending (the scatter and
// broadcast target set), and that deliberately corrupted variants —
// overlapping or gapped range sets — are rejected by Validate.
func FuzzPartition(f *testing.F) {
	f.Add(int64(42), uint8(3), uint64(0xBEEF))
	f.Add(int64(-1), uint8(1), uint64(0))
	f.Add(int64(20110411), uint8(6), uint64(^uint64(0)))
	f.Add(int64(0), uint8(2), uint64(0x123456789ABCDEF0))
	f.Fuzz(func(t *testing.T, key int64, nSeed uint8, ops uint64) {
		backends := int(nSeed%6) + 1
		rg := NewRanges(backends)

		check := func(step int) {
			if err := rg.Validate(backends); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			h := Hash64(key)
			entries := rg.entries
			owned, owner := 0, -1
			for k, e := range entries {
				inUpper := k == len(entries)-1 || h < entries[k+1].Start
				if h >= e.Start && inUpper {
					owned++
					owner = e.Owner
				}
			}
			if owned != 1 {
				t.Fatalf("step %d: key %d (hash %#x) lies in %d ranges, want exactly 1 (%v)",
					step, key, h, owned, entries)
			}
			if got := rg.Owner(h); got != owner {
				t.Fatalf("step %d: Owner(%#x) = %d, linear scan says %d", step, h, got, owner)
			}
			entriesOf := make([]int, backends)
			for _, e := range entries {
				entriesOf[e.Owner]++
			}
			for b, n := range entriesOf {
				if n != 1 {
					t.Fatalf("step %d: backend %d owns %d entries, want exactly 1 (%v)", step, b, n, entries)
				}
			}
			owners := rg.Owners()
			if len(owners) != backends {
				t.Fatalf("step %d: Owners() = %v, want 0..%d", step, owners, backends-1)
			}
			for i, o := range owners {
				if o != i {
					t.Fatalf("step %d: Owners() = %v, want 0..%d", step, owners, backends-1)
				}
			}
			// Corrupted variants must not validate: duplicate a start
			// (overlap) and drop the ring bottom (gap).
			if len(entries) > 1 {
				overlap := &Ranges{entries: slices.Clone(rg.entries)}
				overlap.entries[1].Start = overlap.entries[0].Start
				if overlap.Validate(backends) == nil {
					t.Fatalf("step %d: Validate accepted overlapping ranges", step)
				}
				gapped := &Ranges{entries: slices.Clone(rg.entries[1:])}
				if gapped.Validate(backends) == nil {
					t.Fatalf("step %d: Validate accepted a gapped range set", step)
				}
			}
		}

		check(0)
		for i := 0; i < 16; i++ {
			target := int((ops>>(uint(i)*4))&0xF) % backends
			next, _, err := rg.Split(target)
			if err != nil { // 16 halvings leave every range far wider than one hash
				t.Fatalf("step %d: split %d: %v", i+1, target, err)
			}
			rg = next
			backends++
			check(i + 1)
		}
	})
}
