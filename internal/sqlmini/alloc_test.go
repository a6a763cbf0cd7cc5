// The race detector makes sync.Pool drop a quarter of what is Put, so the
// kernel's pooled scratch is reallocated and the counts below do not hold
// under it.

//go:build !race

package sqlmini

import "testing"

// TestKernelAllocations pins what the kernel costs the heap on a warm pool,
// BenchmarkExecute1's and BenchmarkExecuteBatch64's shapes. A 64-binding row
// select allocates its result and error slots, its shared column list, its
// selection and its views: five objects, none per binding. A point select
// allocates its column list, its selection (also the owned Matched) and its
// one view: three.
func TestKernelAllocations(t *testing.T) {
	cat, pool, st, argSets := benchUsers(t)
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"ExecuteBatch/64", 5, func() {
			if _, errs, info := ExecuteBatch(st, cat, pool, argSets[:64]); errs[0] != nil || info.RowsReturned != 64 {
				t.Fatalf("batch: %v, %d rows", errs[0], info.RowsReturned)
			}
		}},
		{"Execute", 3, func() {
			if _, info, err := Execute(st, cat, pool, argSets[0]); err != nil || info.RowsReturned != 1 {
				t.Fatalf("point: %v, %d rows", err, info.RowsReturned)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.run); got > c.max {
			t.Errorf("%s: %.1f allocations, want at most %.0f", c.name, got, c.max)
		}
	}
}
