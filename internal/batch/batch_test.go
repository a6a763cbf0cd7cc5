package batch

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
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

// held wraps runBatch so that no batch call is answered until release is
// called: every lane keeps its batch in flight, so what is submitted
// meanwhile gathers behind it and the batches formed are a function of the
// submission order alone.
func held(runBatch exec.BatchRunner) (exec.BatchRunner, func()) {
	gate := make(chan struct{})
	return func(req query.BatchRequest) query.BatchResult {
		<-gate
		return runBatch(req)
	}, sync.OnceFunc(func() { close(gate) })
}

// closeHeld closes svc while its backend is held, releasing the backend only
// once the coalescer's Close has sent every filling batch — visible as the
// pool's submitted count reaching n — so the remainders leave at Close and
// not because a batch in flight returned.
func closeHeld(t *testing.T, svc *exec.Service, n int64, release func()) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	giveUp := time.Now().Add(30 * time.Second)
	for sub, _ := svc.Stats(); sub < n; sub, _ = svc.Stats() {
		if time.Now().After(giveUp) {
			release()
			t.Fatalf("Close sent %d of %d submissions", sub, n)
		}
		runtime.Gosched()
	}
	release()
	<-closed
}

// newCoalescing is NewService with the coalescer in reach of the test.
func newCoalescing(workers int, runBatch exec.BatchRunner, opts Options) (*exec.Service, *coalescer) {
	pool := exec.NewExecutor(workers, nil, runBatch)
	c := &coalescer{pool: pool, opts: opts, lanes: map[key]*lane{}}
	return exec.NewServiceOn(pool, c), c
}

func (c *coalescer) laneCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.lanes)
}

// fetchAll fetches every handle and fails the test, instead of hanging it,
// if one is never answered.
func fetchAll(t *testing.T, hs []interp.Handle) []any {
	t.Helper()
	out := make([]any, len(hs))
	done := make(chan error, 1)
	go func() {
		for i, h := range hs {
			v, err := h.Fetch()
			if err != nil {
				done <- fmt.Errorf("handle %d: %w", i, err)
				return
			}
			out[i] = v
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a handle was never answered")
	}
	return out
}

func TestCoalescesFullBatches(t *testing.T) {
	var calls atomic.Int64
	var mu sync.Mutex
	var sizes []int
	runBatch, release := held(func(req query.BatchRequest) query.BatchResult {
		mu.Lock()
		sizes = append(sizes, len(req.ArgSets))
		mu.Unlock()
		return countingBatchRunner(&calls)(req)
	})
	svc := NewService(2, nil, runBatch, Options{MaxBatch: 8})
	defer svc.Close()

	// The first submission leaves alone; the 32 behind it fill four batches.
	var hs []interp.Handle
	for i := int64(0); i < 33; i++ {
		h, err := svc.Submit("q", "select ?", []any{i})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	release()
	for i, v := range fetchAll(t, hs) {
		if v != int64(i*10) {
			t.Fatalf("handle %d: got %v, want %d", i, v, i*10)
		}
	}
	sort.Ints(sizes)
	if calls.Load() != 5 || fmt.Sprint(sizes) != "[1 8 8 8 8]" {
		t.Fatalf("batch runner called %d times with sizes %v, want 5: [1 8 8 8 8]", calls.Load(), sizes)
	}
	b, avg := svc.BatchStats()
	if b != 5 || avg != 33.0/5 {
		t.Fatalf("BatchStats = %d batches, avg %.1f; want 5, 6.6", b, avg)
	}
}

// TestLoneSubmissionIsNotHeld: with nothing of its statement in flight, a
// submission is on the pool by the time Submit returns.
func TestLoneSubmissionIsNotHeld(t *testing.T) {
	var calls atomic.Int64
	svc := NewService(1, nil, countingBatchRunner(&calls), Options{MaxBatch: 100})
	defer svc.Close()

	h, err := svc.Submit("q", "select ?", []any{int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if sub, _ := svc.Stats(); sub != 1 {
		t.Fatalf("submitted %d after Submit returned, want 1", sub)
	}
	if v, err := h.Fetch(); err != nil || v != int64(30) {
		t.Fatalf("fetch: %v %v", v, err)
	}
}

// TestPartialBatchLeavesWhenInFlightReturns: submissions that gathered behind
// a batch in flight leave as one batch when it returns — before any Close or
// Fetch.
func TestPartialBatchLeavesWhenInFlightReturns(t *testing.T) {
	var calls atomic.Int64
	arrived := make(chan int, 2)
	runBatch, release := held(func(req query.BatchRequest) query.BatchResult {
		arrived <- len(req.ArgSets)
		return countingBatchRunner(&calls)(req)
	})
	svc := NewService(1, nil, runBatch, Options{MaxBatch: 100})
	defer svc.Close()

	var hs []interp.Handle
	for i := int64(0); i < 4; i++ {
		h, err := svc.Submit("q", "select ?", []any{i})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	if sub, _ := svc.Stats(); sub != 1 {
		t.Fatalf("submitted %d while the first batch is in flight, want 1", sub)
	}
	release()
	var sizes [2]int
	for i := range sizes {
		select {
		case sizes[i] = <-arrived:
		case <-time.After(30 * time.Second):
			t.Fatalf("batches so far %v: the partial batch did not leave when the batch in flight returned", sizes)
		}
	}
	if sizes != [2]int{1, 3} {
		t.Fatalf("batches of %v, want 1 and 3", sizes)
	}
	for i, v := range fetchAll(t, hs) {
		if v != int64(i*10) {
			t.Fatalf("handle %d: got %v, want %d", i, v, i*10)
		}
	}
}

func TestStatementsDoNotCrossCoalesce(t *testing.T) {
	batches := map[string][]string{} // appended by the single worker, so no lock needed
	runBatch, release := held(func(req query.BatchRequest) query.BatchResult {
		batches[req.Name] = append(batches[req.Name], fmt.Sprint(req.ArgSets))
		return query.BatchResult{Values: make([]any, len(req.ArgSets)), Errs: make([]error, len(req.ArgSets))}
	})
	svc := NewService(1, nil, runBatch, Options{MaxBatch: 4})
	var hs []interp.Handle
	for i := int64(0); i < 4; i++ {
		h1, _ := svc.Submit("a", "select a", []any{i})
		h2, _ := svc.Submit("b", "select b", []any{i})
		hs = append(hs, h1, h2)
	}
	closeHeld(t, svc, 8, release)
	fetchAll(t, hs)
	// Each statement: its first binding alone, the other three at Close.
	want := "map[a:[[[0]] [[1] [2] [3]]] b:[[[0]] [[1] [2] [3]]]]"
	if got := fmt.Sprint(batches); got != want {
		t.Fatalf("batches %s, want %s", got, want)
	}
}

func TestPerBindingErrorsDemux(t *testing.T) {
	var calls atomic.Int64
	runBatch, release := held(countingBatchRunner(&calls))
	svc := NewService(1, nil, runBatch, Options{MaxBatch: 2})
	defer svc.Close()

	// The first submission leaves alone, so the good and the bad binding
	// share the full batch behind it.
	first, _ := svc.Submit("q", "select ?", []any{int64(1)})
	good, _ := svc.Submit("q", "select ?", []any{int64(5)})
	bad, _ := svc.Submit("q", "select ?", []any{"not-an-int"})
	release()
	if v, err := first.Fetch(); err != nil || v != int64(10) {
		t.Fatalf("first binding: %v %v", v, err)
	}
	if v, err := good.Fetch(); err != nil || v != int64(50) {
		t.Fatalf("good binding: %v %v", v, err)
	}
	if _, err := bad.Fetch(); err == nil || err.Error() != "bad binding 1" {
		t.Fatalf("bad binding error = %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("batch runner called %d times, want 2", calls.Load())
	}
}

func TestCloseFlushesAndRejects(t *testing.T) {
	var calls atomic.Int64
	runBatch, release := held(countingBatchRunner(&calls))
	svc := NewService(1, nil, runBatch, Options{MaxBatch: 100})

	first, _ := svc.Submit("q", "select ?", []any{int64(1)})
	h, _ := svc.Submit("q", "select ?", []any{int64(2)}) // behind the first, until Close
	closeHeld(t, svc, 2, release)
	if v, err := first.Fetch(); err != nil || v != int64(10) {
		t.Fatalf("first fetch after close: %v %v", v, err)
	}
	if v, err := h.Fetch(); err != nil || v != int64(20) {
		t.Fatalf("fetch after close: %v %v", v, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("batch runner called %d times, want 2", calls.Load())
	}
	if _, err := svc.Submit("q", "select ?", []any{int64(3)}); !errors.Is(err, exec.ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestCloseRacingReturnKeepsHandles: a Close racing the return of a lane's
// batch in flight — which sends what filled behind it — must still execute
// every pre-Close submission, whichever of the two sends it.
func TestCloseRacingReturnKeepsHandles(t *testing.T) {
	for round := 0; round < 200; round++ {
		svc := NewService(2, nil, func(req query.BatchRequest) query.BatchResult {
			vals := make([]any, len(req.ArgSets))
			for i := range vals {
				vals[i] = int64(1)
			}
			return query.BatchResult{Values: vals, Errs: make([]error, len(req.ArgSets))}
		}, Options{MaxBatch: 100})
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

// TestDistinctStatementsLeaveNoLane: literal SQL makes a lane per statement;
// once everything submitted is fetched, none is left behind.
func TestDistinctStatementsLeaveNoLane(t *testing.T) {
	var calls atomic.Int64
	svc, c := newCoalescing(2, countingBatchRunner(&calls), Options{MaxBatch: 16})
	defer svc.Close()

	hs := make([]interp.Handle, 0, 20_000)
	for i := int64(0); i < 10_000; i++ {
		sql := fmt.Sprintf("select %d", i)
		for j := 0; j < 2; j++ {
			h, err := svc.Submit("q", sql, []any{i})
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
	}
	for i, v := range fetchAll(t, hs) {
		if v != int64(i/2*10) {
			t.Fatalf("handle %d: got %v, want %d", i, v, i/2*10)
		}
	}
	if n := c.laneCount(); n != 0 {
		t.Fatalf("%d lanes left after every handle was fetched", n)
	}
}

// TestChangingGroupFnStrandsNothing: a GroupFn whose answer changes while
// batches are in flight (a shard split moving a key) opens a new lane for
// the same statement; the answer of each batch still comes back to the lane
// that sent it, so no lane waits forever on a count that never drops.
func TestChangingGroupFnStrandsNothing(t *testing.T) {
	var calls atomic.Int64
	var group atomic.Int64
	runBatch, release := held(countingBatchRunner(&calls))
	svc, c := newCoalescing(1, runBatch, Options{MaxBatch: 4, GroupFn: func(string, string, []any) int {
		return int(group.Load())
	}})
	defer svc.Close()

	var hs []interp.Handle
	submit := func(n int64) {
		for i := int64(0); i < n; i++ {
			h, err := svc.Submit("q", "select ?", []any{int64(len(hs))})
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
	}
	submit(6) // group 0: one in flight, a full batch of 4, one filling
	group.Store(1)
	submit(3) // group 1: one in flight, two filling
	release()
	group.Store(0)
	submit(5) // group 0 again, while its batches may be returning
	for i, v := range fetchAll(t, hs) {
		if v != int64(i*10) {
			t.Fatalf("handle %d: got %v, want %d", i, v, i*10)
		}
	}
	if n := c.laneCount(); n != 0 {
		t.Fatalf("%d lanes left after every handle was fetched", n)
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

	// 17 submissions at MaxBatch 4 with the backend held: the first alone,
	// then exactly 4 full batches on either backend.
	run := func(run exec.Runner, runBatch exec.BatchRunner) []any {
		runBatch, release := held(runBatch)
		svc := NewService(2, run, runBatch, Options{MaxBatch: 4})
		defer svc.Close()
		var hs []interp.Handle
		for i := int64(0); i < 17; i++ {
			h, err := svc.Submit("q", "select v from t where k = ?", []any{i})
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		release()
		return fetchAll(t, hs)
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
	for _, s := range group.Copies() {
		groupTrips += s.Stats().NetRequests
	}
	if singleTrips != 5 || groupTrips != singleTrips {
		t.Fatalf("round trips: single %d, replicated group %d (want 5 and equal)", singleTrips, groupTrips)
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
