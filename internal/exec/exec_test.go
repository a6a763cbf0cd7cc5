package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
)

// submit is Executor.Submit with the handle made for the caller, the way
// Service.Submit does it.
func submit(e *Executor, req query.Request) (*Handle, error) {
	h := newHandle(req.Span)
	if err := e.Submit(req, h); err != nil {
		return nil, err
	}
	return h, nil
}

func TestSubmitFetch(t *testing.T) {
	e := NewExecutor(4, func(req query.Request) query.Result {
		return query.Ok(req.Args[0].(int64) * 2)
	}, nil)
	defer e.Close()
	var handles []*Handle
	for i := int64(0); i < 100; i++ {
		h, err := submit(e, query.Req("q", "", []any{i}))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		v, err := h.Fetch()
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(i*2) {
			t.Fatalf("handle %d: got %v", i, v)
		}
	}
	sub, comp := e.Stats()
	if sub != 100 || comp != 100 {
		t.Fatalf("stats %d/%d", sub, comp)
	}
}

func TestFetchIdempotent(t *testing.T) {
	e := NewExecutor(1, func(req query.Request) query.Result { return query.Ok(int64(7)) }, nil)
	defer e.Close()
	h, _ := submit(e, query.Req("q", "", nil))
	for i := 0; i < 3; i++ {
		v, err := h.Fetch()
		if err != nil || v != int64(7) {
			t.Fatalf("fetch %d: %v %v", i, v, err)
		}
	}
}

func TestErrorsPropagate(t *testing.T) {
	want := errors.New("boom")
	e := NewExecutor(2, func(req query.Request) query.Result { return query.Fail(want) }, nil)
	defer e.Close()
	h, _ := submit(e, query.Req("q", "", nil))
	if _, err := h.Fetch(); !errors.Is(err, want) {
		t.Fatalf("got %v", err)
	}
}

func TestConcurrencyBound(t *testing.T) {
	const workers = 3
	var cur, maxSeen atomic.Int64
	e := NewExecutor(workers, func(req query.Request) query.Result {
		n := cur.Add(1)
		for {
			m := maxSeen.Load()
			if n <= m || maxSeen.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return query.Ok(nil)
	}, nil)
	var hs []*Handle
	for i := 0; i < 30; i++ {
		h, _ := submit(e, query.Req("q", "", nil))
		hs = append(hs, h)
	}
	for _, h := range hs {
		h.Fetch()
	}
	e.Close()
	if maxSeen.Load() > workers {
		t.Fatalf("concurrency %d exceeded pool size %d", maxSeen.Load(), workers)
	}
	if maxSeen.Load() < 2 {
		t.Fatalf("pool never ran concurrently (max %d)", maxSeen.Load())
	}
}

func TestSubmitNeverBlocks(t *testing.T) {
	block := make(chan struct{})
	e := NewExecutor(1, func(req query.Request) query.Result {
		<-block
		return query.Ok(nil)
	}, nil)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10_000; i++ {
			if _, err := submit(e, query.Req("q", "", nil)); err != nil {
				t.Error(err)
				break
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("submissions blocked despite unbounded queue")
	}
	close(block)
	e.Close()
}

func TestCloseDrains(t *testing.T) {
	var completed atomic.Int64
	e := NewExecutor(2, func(req query.Request) query.Result {
		time.Sleep(time.Millisecond)
		completed.Add(1)
		return query.Ok(nil)
	}, nil)
	for i := 0; i < 20; i++ {
		submit(e, query.Req("q", "", nil))
	}
	e.Close()
	if completed.Load() != 20 {
		t.Fatalf("close did not drain: %d/20", completed.Load())
	}
	if _, err := submit(e, query.Req("q", "", nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestDone(t *testing.T) {
	block := make(chan struct{})
	e := NewExecutor(1, func(req query.Request) query.Result {
		<-block
		return query.Ok(int64(1))
	}, nil)
	defer e.Close()
	h, _ := submit(e, query.Req("q", "", nil))
	if h.Done() {
		t.Fatal("done before completion")
	}
	close(block)
	h.Fetch()
	if !h.Done() {
		t.Fatal("not done after fetch")
	}
}

func TestFIFOOrder(t *testing.T) {
	var mu sync.Mutex
	var order []int64
	e := NewExecutor(1, func(req query.Request) query.Result {
		mu.Lock()
		order = append(order, req.Args[0].(int64))
		mu.Unlock()
		return query.Ok(nil)
	}, nil)
	var hs []*Handle
	for i := int64(0); i < 50; i++ {
		h, _ := submit(e, query.Req("q", "", []any{i}))
		hs = append(hs, h)
	}
	for _, h := range hs {
		h.Fetch()
	}
	e.Close()
	for i, v := range order {
		if v != int64(i) {
			t.Fatalf("single worker must preserve FIFO: %v", order)
		}
	}
}

func TestServiceDegradedMode(t *testing.T) {
	s := NewService(0, func(req query.Request) query.Result { return query.Ok(int64(9)) })
	defer s.Close()
	h, err := s.Submit("q", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := h.Fetch()
	if err != nil || v != int64(9) {
		t.Fatalf("degraded submit: %v %v", v, err)
	}
}

func TestServiceExec(t *testing.T) {
	s := NewService(2, func(req query.Request) query.Result {
		return query.Ok(fmt.Sprintf("%s:%v", req.Name, req.Args[0]))
	})
	defer s.Close()
	v, err := s.Exec("q", "", []any{int64(3)})
	if err != nil || v != "q:3" {
		t.Fatalf("exec: %v %v", v, err)
	}
}

// --- Close shutdown semantics ---

// TestClosePendingHandlesComplete: Close drains, so every handle obtained
// before Close must complete with its real result — Fetch never blocks
// forever and never observes a lost request.
func TestClosePendingHandlesComplete(t *testing.T) {
	e := NewExecutor(2, func(req query.Request) query.Result {
		time.Sleep(200 * time.Microsecond)
		return query.Ok(req.Args[0])
	}, nil)
	var hs []*Handle
	for i := int64(0); i < 200; i++ {
		h, err := submit(e, query.Req("q", "", []any{i}))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, h := range hs {
			v, err := h.Fetch()
			if err != nil {
				t.Errorf("handle %d failed: %v", i, err)
				return
			}
			if v != int64(i) {
				t.Errorf("handle %d: got %v", i, v)
				return
			}
		}
	}()
	for _, ch := range []chan struct{}{done, closed} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("Fetch or Close blocked past the drain")
		}
	}
}

// TestConcurrentCloseIdempotent: racing Closes and Submits never deadlock;
// every successfully submitted handle completes.
func TestConcurrentCloseIdempotent(t *testing.T) {
	e := NewExecutor(3, func(req query.Request) query.Result { return query.Ok(int64(1)) }, nil)
	var wg sync.WaitGroup
	results := make(chan *Handle, 1000)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h, err := submit(e, query.Req("q", "", nil))
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("unexpected submit error: %v", err)
					}
					return
				}
				results <- h
			}
		}()
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Close()
		}()
	}
	wg.Wait()
	close(results)
	deadline := time.After(10 * time.Second)
	for h := range results {
		fetched := make(chan struct{})
		go func(h *Handle) { h.Fetch(); close(fetched) }(h)
		select {
		case <-fetched:
		case <-deadline:
			t.Fatal("a submitted handle never completed after Close")
		}
	}
}

// TestCloseNoGoroutineLeak: after Close returns, the pool's workers are
// gone. Run with -race to catch teardown races.
func TestCloseNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		e := NewExecutor(8, func(req query.Request) query.Result { return query.Ok(nil) }, nil)
		for i := 0; i < 50; i++ {
			submit(e, query.Req("q", "", nil))
		}
		e.Close()
	}
	// The workers exit asynchronously of wg.Wait observers only in the sense
	// of scheduling; give the runtime a moment to reap them.
	var after int
	for i := 0; i < 100; i++ {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after closing 10 pools", before, after)
}

// TestEnqueueAfterCloseFailsHandles: a closed pool refuses a call of either
// shape and fails every handle that came with it, so a Fetch on a handle the
// coalescer already handed out cannot block.
func TestEnqueueAfterCloseFailsHandles(t *testing.T) {
	e := NewExecutor(1, func(req query.Request) query.Result { return query.Ok(nil) }, nil)
	e.Close()
	hs := []*Handle{newHandle(nil), newHandle(nil)}
	call := query.BatchCall(query.BatchReq("q", "", [][]any{{int64(1)}, {int64(2)}}))
	refused := ownerFunc(func() { t.Error("the owner of a refused call was told it returned") })
	if err := e.Enqueue(&call, refused, hs...); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	for i, h := range hs {
		if !h.Done() {
			t.Fatalf("handle %d of a refused call left pending", i)
		}
		if _, err := h.Fetch(); !errors.Is(err, ErrClosed) {
			t.Fatalf("handle %d: %v, want ErrClosed", i, err)
		}
	}
	if sub, comp := e.Stats(); sub != 0 || comp != 0 {
		t.Fatalf("a refused call was counted: %d/%d", sub, comp)
	}
}

type ownerFunc func()

func (f ownerFunc) Returned() { f() }

// TestOwnerHearsBeforeHandlesComplete: the owner of a call is told once, after
// the backend answered and before any handle of the call completes, so by the
// time a fetcher sees a result the owner has already counted the call back.
func TestOwnerHearsBeforeHandlesComplete(t *testing.T) {
	answered := false
	e := NewExecutor(1, nil, func(req query.BatchRequest) query.BatchResult {
		answered = true
		return query.BatchResult{Values: make([]any, len(req.ArgSets)), Errs: make([]error, len(req.ArgSets))}
	})
	defer e.Close()
	hs := []*Handle{newHandle(nil), newHandle(nil)}
	var told atomic.Int64
	own := ownerFunc(func() {
		if !answered || hs[0].Done() || hs[1].Done() {
			t.Errorf("owner told with answered=%v, handles done %v %v", answered, hs[0].Done(), hs[1].Done())
		}
		told.Add(1)
	})
	call := query.BatchCall(query.BatchReq("q", "", [][]any{{int64(1)}, {int64(2)}}))
	if err := e.Enqueue(&call, own, hs...); err != nil {
		t.Fatal(err)
	}
	for _, h := range hs {
		if _, err := h.Fetch(); err != nil {
			t.Fatal(err)
		}
	}
	if told.Load() != 1 {
		t.Fatalf("owner told %d times, want 1", told.Load())
	}
}

// --- Synchronous mode (workers == 0) ---

// TestServiceSyncModeRunsInline: with no workers, Submit executes on the
// calling goroutine and hands back an already-done handle.
func TestServiceSyncModeRunsInline(t *testing.T) {
	var calls atomic.Int64
	s := NewService(0, func(req query.Request) query.Result {
		calls.Add(1)
		return query.Ok(req.Args[0].(int64) * 3)
	})
	defer s.Close()

	h, err := s.Submit("q", "", []any{int64(5)})
	if err != nil {
		t.Fatal(err)
	}
	if !h.(*Handle).Done() {
		t.Fatal("synchronous submit returned a pending handle")
	}
	if v, err := h.Fetch(); err != nil || v != int64(15) {
		t.Fatalf("fetch: %v %v", v, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("runner ran %d times, want 1", calls.Load())
	}
	if b, avg := s.BatchStats(); b != 0 || avg != 0 {
		t.Fatalf("synchronous BatchStats = %d, %.2f", b, avg)
	}
}

// TestServiceStatsEveryMode: Stats counts what went through Submit whether
// or not there is a pool behind it.
func TestServiceStatsEveryMode(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		s := NewService(workers, func(req query.Request) query.Result { return query.Ok(nil) })
		for i := 0; i < 20; i++ {
			h, err := s.Submit("q", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Fetch(); err != nil {
				t.Fatal(err)
			}
		}
		if sub, comp := s.Stats(); sub != 20 || comp != 20 {
			t.Errorf("workers=%d: Stats = %d submitted / %d completed, want 20 / 20", workers, sub, comp)
		}
		s.Close()
	}
}

// TestServiceSyncModeErrorPropagates: synchronous execution carries the
// runner's error through the handle, like the pooled path.
func TestServiceSyncModeErrorPropagates(t *testing.T) {
	want := errors.New("kaput")
	s := NewService(0, func(req query.Request) query.Result { return query.Fail(want) })
	defer s.Close()
	h, err := s.Submit("q", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Fetch(); !errors.Is(err, want) {
		t.Fatalf("got %v", err)
	}
}

// TestServiceConcurrentClose: racing Service.Close calls all return after
// the full shutdown, and a pre-Close submission still executes.
func TestServiceConcurrentClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := NewService(2, func(req query.Request) query.Result { return query.Ok(int64(1)) })
		h, err := s.Submit("q", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Close()
			}()
		}
		wg.Wait()
		if v, err := h.Fetch(); err != nil || v != int64(1) {
			t.Fatalf("round %d: pre-Close submission lost: (%v, %v)", round, v, err)
		}
	}
}
