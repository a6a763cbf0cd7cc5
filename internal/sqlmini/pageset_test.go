package sqlmini

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPageSetMatchesSortCompact holds the bitmap page set to what it replaces,
// slices.Sort then slices.Compact: random sets over narrow and wide ranges,
// repeats, the range's first and last ids, a span wide enough to take the sort
// fallback. After every call the bitmap is all zero, and the scratch's bitmap
// is reused from call to call rather than allocated again.
func TestPageSetMatchesSortCompact(t *testing.T) {
	const limit = 1 << 12 // the extent's pages: ids are 0..limit-1
	rng := rand.New(rand.NewSource(20110411))
	cases := [][]int{
		nil,
		{7},
		{5, 5, 5, 5},
		{0, limit - 1}, // two ids a range apart: sorted
		{limit - 1, 0, limit - 1, 0},
		{63, 64, 0, 127, 128, 64},
		{0, 1 << 20}, // two ids a long way apart: the sort fallback
		{3, 1 << 20, 3, 9, 1 << 19},
	}
	for i := 0; i < 300; i++ {
		n, span := 1+rng.Intn(128), 1+rng.Intn(limit)
		if i%10 == 0 {
			span = 1 << 20 // wide against n: the sort fallback
		}
		base := rng.Intn(limit)
		ids := make([]int, n)
		for j := range ids {
			ids[j] = base + rng.Intn(span)
			if j > 0 && rng.Intn(4) == 0 {
				ids[j] = ids[rng.Intn(j)] // a repeat
			}
		}
		cases = append(cases, ids)
	}
	// 64 ids across the whole range, its first and last among them: the
	// bitmap's first and last bits.
	wide := []int{limit - 1, 0}
	for len(wide) < 64 {
		wide = append(wide, rng.Intn(limit))
	}
	cases = append(cases, wide)

	sc := new(scratch)
	for _, ids := range cases {
		want := slices.Compact(slices.Sorted(slices.Values(ids)))
		if got := sc.pageSet(slices.Clone(ids)); !slices.Equal(got, want) {
			t.Fatalf("pageSet(%v) = %v, want %v", ids, got, want)
		}
		for w, word := range sc.bits {
			if word != 0 {
				t.Fatalf("after pageSet(%v): bitmap word %d is %#x, want 0", ids, w, word)
			}
		}
	}

	// A warm scratch sorts a set that fits its bitmap without allocating, in
	// the same bitmap.
	ids := []int{0, 1000, 17, 17, 900} // 16 words for 5 ids: the bitmap
	sc.pageSet(slices.Clone(ids))
	bitmap := &sc.bits[0]
	work := make([]int, len(ids))
	if n := testing.AllocsPerRun(100, func() { copy(work, ids); sc.pageSet(work) }); n != 0 {
		t.Errorf("pageSet on a warm scratch allocates %.0f objects, want 0", n)
	}
	if &sc.bits[0] != bitmap {
		t.Error("pageSet replaced a bitmap that had room")
	}
}
