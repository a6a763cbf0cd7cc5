package shard

import (
	"fmt"
	"math/bits"
	"testing"
)

// The generation-0 range map is the multiplicative range reduction: shard s
// of a fresh n-way cluster owns the keys whose Hash64(v)·n has high word s.
func TestPartitionMatchesFreshRangeMap(t *testing.T) {
	Partition := func(v any, n int) int {
		hi, _ := bits.Mul64(Hash64(v), uint64(n))
		return int(hi)
	}
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		rg := NewRanges(n)
		if err := rg.Validate(n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := int64(-50); i < 1000; i++ {
			if got, want := rg.OwnerOf(i), Partition(i, n); got != want {
				t.Fatalf("n=%d key=%d: range map owner %d, Partition %d", n, i, got, want)
			}
		}
		for i := 0; i < 200; i++ {
			v := fmt.Sprintf("key-%d", i)
			if got, want := rg.OwnerOf(v), Partition(v, n); got != want {
				t.Fatalf("n=%d key=%q: range map owner %d, Partition %d", n, v, got, want)
			}
		}
	}
}

// Keys hashing exactly onto a range edge belong to the range starting
// there: lower bounds are inclusive, upper bounds exclusive, and the ring
// ends are owned by the first and last shard.
func TestRangeBoundaryKeysAreOwnedInclusively(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		rg := NewRanges(n)
		for i := 1; i < n; i++ {
			b := rangeBoundary(i, n)
			if got := rg.Owner(b); got != i {
				t.Fatalf("n=%d: boundary %#x owned by %d, want %d", n, b, got, i)
			}
			if got := rg.Owner(b - 1); got != i-1 {
				t.Fatalf("n=%d: boundary-1 %#x owned by %d, want %d", n, b-1, got, i-1)
			}
		}
		if got := rg.Owner(0); got != 0 {
			t.Fatalf("n=%d: hash 0 owned by %d", n, got)
		}
		if got := rg.Owner(^uint64(0)); got != n-1 {
			t.Fatalf("n=%d: top hash owned by %d, want %d", n, got, n-1)
		}
	}
	// A split point is itself a range edge: the midpoint belongs to the new
	// owner, the hash just below it stays with the old one.
	rg := NewRanges(2)
	next, mid, err := rg.Split(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := next.Owner(mid); got != 2 {
		t.Fatalf("split point %#x owned by %d, want new owner 2", mid, got)
	}
	if got := next.Owner(mid - 1); got != 0 {
		t.Fatalf("below split point owned by %d, want 0", got)
	}
}

func TestSplitErrors(t *testing.T) {
	rg := NewRanges(2)
	for _, s := range []int{-1, 2} {
		if _, _, err := rg.Split(s); err == nil {
			t.Fatalf("splitting shard %d of 2 must fail", s)
		}
	}
	// Each split halves shard 0's range: after 64 it is a single hash, which
	// cannot be halved again.
	rg = NewRanges(1)
	for i := 0; i < 64; i++ {
		next, _, err := rg.Split(0)
		if err != nil {
			t.Fatalf("split %d: %v", i+1, err)
		}
		rg = next
	}
	if _, _, err := rg.Split(0); err == nil {
		t.Fatal("splitting a single-hash range must fail")
	}
}

func TestValidateRejectsGapsOverlapsAndBadOwners(t *testing.T) {
	cases := []struct {
		name string
		rg   *Ranges
	}{
		{"empty set", &Ranges{}},
		{"gap below first range", &Ranges{entries: []RangeEntry{{Start: 10, Owner: 0}}}},
		{"overlap (duplicate start)", &Ranges{entries: []RangeEntry{
			{Start: 0, Owner: 0}, {Start: 100, Owner: 1}, {Start: 100, Owner: 0}}}},
		{"disorder", &Ranges{entries: []RangeEntry{
			{Start: 0, Owner: 0}, {Start: 200, Owner: 1}, {Start: 100, Owner: 0}}}},
		{"owner out of range", &Ranges{entries: []RangeEntry{
			{Start: 0, Owner: 0}, {Start: 100, Owner: 2}}}},
		{"negative owner", &Ranges{entries: []RangeEntry{{Start: 0, Owner: -1}}}},
	}
	for _, tc := range cases {
		if err := tc.rg.Validate(2); err == nil {
			t.Fatalf("%s: Validate accepted a corrupt range set", tc.name)
		}
	}
}
