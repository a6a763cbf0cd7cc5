package net

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/query"
)

const (
	testSelect = "select val from t where id = ?"
	testInsert = "insert into t values (?, ?)"
)

func dialOpts(t *testing.T, s *Server, opts ClientOptions) *Client {
	t.Helper()
	c, err := DialOptions(s.Addr(), opts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// The backoff doubles from the base and stops doubling at 64× it.
func TestBackoffDoublesUpTo64xBase(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 100 * time.Microsecond}
	for attempt, want := range []time.Duration{1, 2, 4, 8, 16, 32, 64, 64, 64} {
		if got := p.backoff(attempt, nil); got != want*p.BaseBackoff {
			t.Errorf("attempt %d: %v, want %v", attempt, got, want*p.BaseBackoff)
		}
	}
	if got := (RetryPolicy{}).backoff(100, nil); got != 64*time.Millisecond {
		t.Errorf("default base, attempt 100: %v, want 64ms", got)
	}
}

// A torn request frame poisons the connection, and the torn request — whose
// frame provably never decoded server-side — is re-sent on a fresh
// connection. The backend sees the read exactly once per completed attempt.
func TestTornFrameRetriesRead(t *testing.T) {
	var execs atomic.Int64
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		execs.Add(1)
		return query.Ok(int64(7))
	}}
	s := startServer(t, backend, ServerOptions{})
	inj := fault.New(1).At(fault.TornWrite, 1)
	c := dialOpts(t, s, ClientOptions{
		Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * time.Microsecond},
		Fault: inj,
	})

	res := c.Exec(query.Req("q", testSelect, []any{int64(1)}))
	if res.Err != nil {
		t.Fatalf("read should survive the torn frame, got %v", res.Err)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("backend executed %d times, want exactly 1 (torn frame never decodes)", got)
	}
	if c.Retries() != 1 || c.Reconnects() != 1 {
		t.Fatalf("retries=%d reconnects=%d, want 1/1", c.Retries(), c.Reconnects())
	}
	if inj.Fired(fault.TornWrite) != 1 {
		t.Fatalf("torn-write fired %d, want 1", inj.Fired(fault.TornWrite))
	}
}

// A torn *write* frame is equally safe to re-send: the partial frame never
// decodes, so the insert executes exactly once — never zero, never twice.
func TestTornFrameRetriesWriteExactlyOnce(t *testing.T) {
	var inserts atomic.Int64
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		inserts.Add(1)
		return query.Ok(nil)
	}}
	s := startServer(t, backend, ServerOptions{})
	c := dialOpts(t, s, ClientOptions{
		Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * time.Microsecond},
		Fault: fault.New(2).At(fault.TornWrite, 1),
	})

	res := c.Exec(query.Req("w", testInsert, []any{int64(1), "x"}))
	if res.Err != nil {
		t.Fatalf("unsent write should be re-sent, got %v", res.Err)
	}
	if got := inserts.Load(); got != 1 {
		t.Fatalf("insert executed %d times, want exactly 1", got)
	}
	if c.Retries() != 1 {
		t.Fatalf("retries=%d, want 1", c.Retries())
	}
}

// A write whose frame fully reached the server before the connection died
// must NOT be retried: its outcome is unknown (here: it executed). The
// caller gets query.ErrConnLost, not a duplicate execution.
func TestUnackedWriteSurfacesConnLostUnretried(t *testing.T) {
	executed := make(chan struct{})
	release := make(chan struct{})
	var execOnce sync.Once
	var inserts atomic.Int64
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		inserts.Add(1)
		execOnce.Do(func() { close(executed) })
		<-release
		return query.Ok(nil)
	}}
	s := startServer(t, backend, ServerOptions{})
	c := dialOpts(t, s, ClientOptions{
		Retry: RetryPolicy{MaxAttempts: 5, BaseBackoff: 100 * time.Microsecond},
	})

	done := make(chan query.Result, 1)
	go func() { done <- c.Exec(query.Req("w", testInsert, []any{int64(1), "x"})) }()
	<-executed
	// The server received and executed the write; now the transport dies
	// before the acknowledgement can be delivered.
	c.mu.Lock()
	cc := c.cc
	c.mu.Unlock()
	cc.poison(query.ErrConnLost)
	close(release)

	res := <-done
	if !errors.Is(res.Err, query.ErrConnLost) {
		t.Fatalf("unacked write: got %v, want query.ErrConnLost", res.Err)
	}
	if errors.Is(res.Err, ErrClientClosed) {
		t.Fatalf("conn death must not masquerade as user close: %v", res.Err)
	}
	if got := c.Retries(); got != 0 {
		t.Fatalf("unacked write was retried %d times; writes must never replay", got)
	}
	if got := inserts.Load(); got != 1 {
		t.Fatalf("insert executed %d times, want exactly 1", got)
	}
}

// An injected connection reset severs in-flight reads; they replay over
// the single-flight reconnect and still answer correctly — the
// pipelined-request replay the resilience contract promises.
func TestConnResetReplaysPipelinedReads(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		if calls.Add(1) == 1 {
			<-gate // hold the first read in flight across the reset
		}
		n, _ := req.Args[0].(int64)
		return query.Ok(n * 2)
	}}
	s := startServer(t, backend, ServerOptions{})
	c := dialOpts(t, s, ClientOptions{
		Retry: RetryPolicy{MaxAttempts: 6, BaseBackoff: 100 * time.Microsecond},
		Fault: fault.New(3).At(fault.ConnReset, 2), // fire on the second request's decision
	})

	first := make(chan query.Result, 1)
	go func() { first <- c.Exec(query.Req("q", testSelect, []any{int64(10)})) }()
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// This request's reset decision kills the connection under the pending
	// first read, then proceeds on a fresh one.
	second := c.Exec(query.Req("q", testSelect, []any{int64(20)}))
	close(gate)
	firstRes := <-first

	if second.Err != nil || firstRes.Err != nil {
		t.Fatalf("reads must survive the reset: first=%v second=%v", firstRes.Err, second.Err)
	}
	if v, _ := firstRes.Value.(int64); v != 20 {
		t.Fatalf("first read answered %v, want 20", firstRes.Value)
	}
	if v, _ := second.Value.(int64); v != 40 {
		t.Fatalf("second read answered %v, want 40", second.Value)
	}
	if c.Retries() < 1 || c.Reconnects() < 1 {
		t.Fatalf("retries=%d reconnects=%d, want ≥1 each", c.Retries(), c.Reconnects())
	}
}

// No reset fires while a write is in flight: the injection point is gated,
// so chaos can never manufacture an unknown-outcome write on its own.
func TestConnResetGatedByInflightWrite(t *testing.T) {
	executed := make(chan struct{})
	release := make(chan struct{})
	var execOnce sync.Once
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		if req.Name == "w" {
			execOnce.Do(func() { close(executed) })
			<-release
		}
		return query.Ok(nil)
	}}
	s := startServer(t, backend, ServerOptions{})
	c := dialOpts(t, s, ClientOptions{
		Fault: fault.New(4).RateAll(0).Rate(fault.ConnReset, 1), // every decision wants to fire
	})

	done := make(chan query.Result, 1)
	go func() { done <- c.Exec(query.Req("w", testInsert, []any{int64(1), "x"})) }()
	<-executed
	// A read issued while the write is pending: its reset decision fires
	// but must be suppressed (unsafe), so the write's response survives.
	if res := c.Exec(query.Req("q", testSelect, []any{int64(1)})); res.Err != nil {
		t.Fatalf("read: %v", res.Err)
	}
	close(release)
	if res := <-done; res.Err != nil {
		t.Fatalf("write must be acknowledged despite reset pressure: %v", res.Err)
	}
}

// The lifetime retry budget caps replays: once spent, the next transport
// loss surfaces instead of retrying.
func TestRetryBudgetExhausts(t *testing.T) {
	backend := echoBackend()
	s := startServer(t, backend, ServerOptions{})
	c := dialOpts(t, s, ClientOptions{
		Retry: RetryPolicy{MaxAttempts: 10, BaseBackoff: 100 * time.Microsecond, Budget: 1},
		Fault: fault.New(5).At(fault.TornWrite, 1, 2, 3, 4, 5),
	})

	res := c.Exec(query.Req("q", testSelect, []any{int64(1)}))
	if !errors.Is(res.Err, query.ErrConnLost) {
		t.Fatalf("budget-exhausted request: got %v, want query.ErrConnLost", res.Err)
	}
	if got := c.Retries(); got != 1 {
		t.Fatalf("retries=%d, want exactly the budget (1)", got)
	}
}

// Without a retry policy (the zero options), a lost connection surfaces
// query.ErrConnLost — the distinct retryable sentinel, not generic text.
func TestConnLostSentinelWithoutRetry(t *testing.T) {
	stall := make(chan struct{})
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		<-stall
		return query.Ok(nil)
	}}
	s := startServer(t, backend, ServerOptions{})
	c, err := DialOptions(s.Addr(), ClientOptions{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(c.Close)

	done := make(chan query.Result, 1)
	go func() { done <- c.Exec(query.Req("q", testSelect, []any{int64(1)})) }()
	time.Sleep(20 * time.Millisecond)
	c.mu.Lock()
	cc := c.cc
	c.mu.Unlock()
	cc.conn.Close() // the transport dies out from under the request
	res := <-done
	close(stall)
	if !errors.Is(res.Err, query.ErrConnLost) {
		t.Fatalf("got %v, want query.ErrConnLost", res.Err)
	}
	// And the sentinel crosses the wire as a code, not text.
	b := appendErr(nil, res.Err)
	if err := (&reader{b: b}).errSlot(); !errors.Is(err, query.ErrConnLost) {
		t.Fatalf("wire round-trip lost the sentinel: %v", err)
	}
}

// After a send failure poisons the connection, later requests on the same
// generation fail immediately as unsent (never a desynchronized stream),
// and the client dials a fresh generation for them.
func TestSendFailurePoisonsGeneration(t *testing.T) {
	backend := echoBackend()
	s := startServer(t, backend, ServerOptions{})
	c := dialOpts(t, s, ClientOptions{
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond},
	})

	c.mu.Lock()
	cc := c.cc
	c.mu.Unlock()
	// Simulate a mid-frame write failure by closing the socket out from
	// under the next send: WriteFrame fails, which must poison cc.
	cc.conn.Close()
	if res := c.Exec(query.Req("q", testSelect, []any{int64(3)})); res.Err != nil {
		t.Fatalf("request should recover on a fresh generation: %v", res.Err)
	}
	if !cc.dead() {
		t.Fatal("failed send must poison its generation")
	}
	if c.Reconnects() < 1 {
		t.Fatal("expected a reconnect after the poisoned generation")
	}
}
