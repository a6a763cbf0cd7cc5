package batch

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/storage"
)

// countingBatchRunner returns a BatchRunner that executes bindings with a
// deterministic function and counts calls.
func countingBatchRunner(calls *atomic.Int64) exec.BatchRunner {
	return func(req query.BatchRequest) query.BatchResult {
		calls.Add(1)
		vals := make([]any, len(req.ArgSets))
		errs := make([]error, len(req.ArgSets))
		for i, args := range req.ArgSets {
			if len(args) == 1 {
				if n, ok := args[0].(int64); ok {
					vals[i] = n * 10
					continue
				}
			}
			errs[i] = fmt.Errorf("bad binding %d", i)
		}
		return query.BatchResult{Values: vals, Errs: errs}
	}
}

func TestCoalescesFullBatches(t *testing.T) {
	var calls atomic.Int64
	svc := NewService(2, nil, countingBatchRunner(&calls), Options{MaxBatch: 8, Linger: time.Second})
	defer svc.Close()

	var hs []interp.Handle
	for i := int64(0); i < 32; i++ {
		h, err := svc.Submit("q", "select ?", []any{i})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for i, h := range hs {
		v, err := h.Fetch()
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(i*10) {
			t.Fatalf("handle %d: got %v, want %d", i, v, i*10)
		}
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("batch runner called %d times, want 4", got)
	}
	b, avg := svc.BatchStats()
	if b != 4 || avg != 8 {
		t.Fatalf("BatchStats = %d batches, avg %.1f; want 4, 8", b, avg)
	}
}

func TestLingerFlushesPartialBatch(t *testing.T) {
	var calls atomic.Int64
	svc := NewService(1, nil, countingBatchRunner(&calls), Options{MaxBatch: 100, Linger: 5 * time.Millisecond})
	defer svc.Close()

	h, err := svc.Submit("q", "select ?", []any{int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	// Fetch must unblock via the linger timer, not MaxBatch.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, err := h.Fetch(); err != nil || v != int64(30) {
			t.Errorf("fetch: %v %v", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("partial batch never lingered out")
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
}

func TestStatementsDoNotCrossCoalesce(t *testing.T) {
	type call struct {
		name string
		n    int
	}
	var batches []call // appended by the single worker, so no lock needed
	svc := NewService(1, nil, func(req query.BatchRequest) query.BatchResult {
		batches = append(batches, call{req.Name, len(req.ArgSets)})
		return query.BatchResult{Values: make([]any, len(req.ArgSets)), Errs: make([]error, len(req.ArgSets))}
	}, Options{MaxBatch: 4, Linger: time.Second})
	var hs []interp.Handle
	for i := 0; i < 4; i++ {
		h1, _ := svc.Submit("a", "select a", nil)
		h2, _ := svc.Submit("b", "select b", nil)
		hs = append(hs, h1, h2)
	}
	svc.Close()
	for _, h := range hs {
		if _, err := h.Fetch(); err != nil {
			t.Fatal(err)
		}
	}
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2 (one per statement): %+v", len(batches), batches)
	}
	for _, b := range batches {
		if b.n != 4 {
			t.Fatalf("statement %q batched %d requests, want 4", b.name, b.n)
		}
	}
}

func TestPerBindingErrorsDemux(t *testing.T) {
	var calls atomic.Int64
	svc := NewService(1, nil, countingBatchRunner(&calls), Options{MaxBatch: 2, Linger: time.Second})
	defer svc.Close()

	good, _ := svc.Submit("q", "select ?", []any{int64(5)})
	bad, _ := svc.Submit("q", "select ?", []any{"not-an-int"})
	if v, err := good.Fetch(); err != nil || v != int64(50) {
		t.Fatalf("good binding: %v %v", v, err)
	}
	if _, err := bad.Fetch(); err == nil || err.Error() != "bad binding 1" {
		t.Fatalf("bad binding error = %v", err)
	}
}

func TestCloseFlushesAndRejects(t *testing.T) {
	var calls atomic.Int64
	svc := NewService(1, nil, countingBatchRunner(&calls), Options{MaxBatch: 100, Linger: time.Hour})

	h, _ := svc.Submit("q", "select ?", []any{int64(1)})
	svc.Close()
	if v, err := h.Fetch(); err != nil || v != int64(10) {
		t.Fatalf("fetch after close: %v %v", v, err)
	}
	if _, err := svc.Submit("q", "select ?", []any{int64(2)}); !errors.Is(err, exec.ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestCloseDrainContractUnderLingerRace stresses the window between a
// linger-timer flush removing its group and handing it to the executor: a
// Service.Close racing that window must still execute every pre-Close
// submission (no ErrClosed on handles obtained before Close).
func TestCloseDrainContractUnderLingerRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		svc := NewService(2, nil, func(req query.BatchRequest) query.BatchResult {
			vals := make([]any, len(req.ArgSets))
			for i := range vals {
				vals[i] = int64(1)
			}
			return query.BatchResult{Values: vals, Errs: make([]error, len(req.ArgSets))}
		}, Options{MaxBatch: 100, Linger: time.Microsecond})
		var hs []*exec.Handle
		for i := 0; i < 8; i++ {
			h, err := svc.Submit("q", "select 1", nil)
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h.(*exec.Handle))
		}
		svc.Close()
		for i, h := range hs {
			if v, err := h.Fetch(); err != nil || v != int64(1) {
				t.Fatalf("round %d handle %d: (%v, %v) — pre-Close submission lost", round, i, v, err)
			}
		}
	}
}

// TestReplicatedBackendRoundTripsMatchSingleServer pins replica-aware batch
// routing: read batches submitted through the coalescer against a replica
// group (one primary + R read copies, internal/replica) pay exactly the
// round trips a single server pays — each batch rides whole to one replica —
// while returning identical values.
func TestReplicatedBackendRoundTripsMatchSingleServer(t *testing.T) {
	schema := storage.NewSchema(
		storage.Column{Name: "k", Type: storage.TInt},
		storage.Column{Name: "v", Type: storage.TInt},
	)
	single := server.New(server.SYS1(), 0)
	defer single.Close()
	group := replica.NewGroup(server.SYS1(), 0, replica.Options{Replicas: 2})
	defer group.Close()
	for _, s := range append(group.Copies(), single) {
		if err := s.CreateTable("t", schema, 8); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 64; i++ {
			if err := s.InsertRow("t", []any{i, i * 7}); err != nil {
				t.Fatal(err)
			}
		}
		s.FinishLoad()
	}

	// 16 submissions at MaxBatch 4: exactly 4 full batches on either
	// backend, no linger dependence.
	run := func(run exec.Runner, runBatch exec.BatchRunner) []any {
		svc := NewService(2, run, runBatch, Options{MaxBatch: 4, Linger: time.Second})
		defer svc.Close()
		var hs []*exec.Handle
		for i := int64(0); i < 16; i++ {
			h, err := svc.Submit("q", "select v from t where k = ?", []any{i})
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h.(*exec.Handle))
		}
		out := make([]any, len(hs))
		for i, h := range hs {
			v, err := h.Fetch()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = v
		}
		return out
	}

	wantVals := run(single.Exec, single.ExecBatch)
	gotVals := run(group.Exec, group.ExecBatch)
	for i := range wantVals {
		if !interp.Equal(wantVals[i], gotVals[i]) {
			t.Fatalf("submission %d: single %v, replicated %v", i,
				interp.Format(wantVals[i]), interp.Format(gotVals[i]))
		}
	}

	singleTrips := single.Stats().NetRequests
	var groupTrips int64
	for _, s := range group.CopyStats() {
		groupTrips += s.NetRequests
	}
	if singleTrips != 4 || groupTrips != singleTrips {
		t.Fatalf("round trips: single %d, replicated group %d (want 4 and equal)", singleTrips, groupTrips)
	}
	// The batches actually spread over the replicas.
	spread := 0
	for _, reads := range group.ReadCounts() {
		if reads > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("batches did not spread over replicas: %v", group.ReadCounts())
	}
}
