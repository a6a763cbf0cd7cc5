// The race detector makes sync.Pool drop a quarter of what is Put, so pooled
// queue entries are reallocated and the counts below do not hold under it.

//go:build !race

package exec_test

import (
	"testing"

	"repro/internal/batch"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/query"
)

// TestSubmitAllocations pins what one submission costs the heap. Plain
// submit+fetch allocates exactly one object of its own, the handle the caller
// keeps: the queue entry is pooled and holds a single submission's handle
// inline. A coalesced submission adds its share of its statement's lane: 16
// submissions are two batches, the first alone and fifteen gathered behind it
// while it is in flight, and cost the lane, the doubling argument-set slice
// of each batch and the lane's handle slice, which it keeps from one batch to
// the next (12 objects, 1.75 per submission; no timer). The bound is the
// count at the commit before the queue entry took its one shape, which paid
// one more slice per batch job, so the batch path cannot quietly start
// paying per job again.
func TestSubmitAllocations(t *testing.T) {
	const maxBatch = 16
	run := func(req query.Request) query.Result { return query.Ok(nil) }
	vals, errs := make([]any, maxBatch), make([]error, maxBatch)
	runBatch := func(req query.BatchRequest) query.BatchResult {
		return query.BatchResult{Values: vals[:len(req.ArgSets)], Errs: errs[:len(req.ArgSets)]}
	}
	args := []any{int64(1)}
	hs := make([]interp.Handle, maxBatch)
	perSubmission := func(svc *exec.Service) float64 {
		defer svc.Close()
		return testing.AllocsPerRun(200, func() {
			for i := range hs {
				h, err := svc.Submit("q", "select ?", args)
				if err != nil {
					t.Fatal(err)
				}
				hs[i] = h
			}
			for _, h := range hs {
				if _, err := h.Fetch(); err != nil {
					t.Fatal(err)
				}
			}
		}) / maxBatch
	}

	if got := perSubmission(exec.NewService(4, run)); got != 1 {
		t.Errorf("plain submit+fetch: %.3f allocations per submission, want exactly 1 (the handle)", got)
	}
	coalescing := batch.NewService(4, run, runBatch, batch.Options{MaxBatch: maxBatch})
	if got := perSubmission(coalescing); got > 1.875 {
		t.Errorf("coalesced submit+fetch: %.3f allocations per submission, want at most 1.875", got)
	}
}
