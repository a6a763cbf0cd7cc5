// The race detector adds allocations of its own, so the counts below hold
// only without it.

//go:build !race

package interp_test

import "testing"

// TestRunAllocations pins what one iteration of the RUBiS kernel costs the
// heap over a query service that allocates nothing. The transformed kernel
// (a record and a submission per iteration into a temporary table, then a
// fetch and a field read per record) allocated 7.013 objects per iteration
// before records came from a per-run slab, builtin arguments from the
// machine's stack, single results from a slot on the Interp and query
// arguments from a per-run slab: the record, its field map and the map's
// first group, two argument slices, a one-value result slice and the boxed
// total. The untransformed kernel (execQuery and a field read) allocated
// 4.005. What is left is the boxed total, above the boxed-int table on every
// iteration here, plus slab and table growth amortised.
func TestRunAllocations(t *testing.T) {
	for _, tc := range []struct {
		name        string
		transformed bool
	}{{"transformed", true}, {"original", false}} {
		in, proc, args := rubisKernel(t, tc.transformed)
		runRubis(t, in, proc, args)
		got := testing.AllocsPerRun(20, func() { runRubis(t, in, proc, args) }) / rubisIters
		t.Logf("%s: %.3f allocations per iteration", tc.name, got)
		if got > 1.05 {
			t.Errorf("%s kernel: %.3f allocations per iteration, want at most 1.05", tc.name, got)
		}
	}
}
