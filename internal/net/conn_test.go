package net

import (
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/query"
)

// countingListener hands the server connections that count their Writes (one
// Write is one syscall on a TCP socket) and can make each one slow.
type countingListener struct {
	stdnet.Listener
	writes *atomic.Int64
	delay  time.Duration
}

func (l countingListener) Accept() (stdnet.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, writes: l.writes, delay: l.delay}, nil
}

type countingConn struct {
	stdnet.Conn
	writes *atomic.Int64
	delay  time.Duration
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return c.Conn.Write(b)
}

// startCountingServer is startServer over a countingListener; the returned
// counter sees every Write the server makes on any connection.
func startCountingServer(t *testing.T, backend query.Executor, delay time.Duration) (*Server, *atomic.Int64) {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := NewServer(backend, ServerOptions{})
	writes := new(atomic.Int64)
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop(countingListener{Listener: ln, writes: writes, delay: delay})
	t.Cleanup(s.Close)
	return s, writes
}

// At depth one a request is one Write on the client and its reply one Write on
// the server — header and payload together. The client's Writes are counted by
// fault.Conn, on which every Write is one SlowLink decision (none fires here).
func TestOneWritePerFrameAtDepthOne(t *testing.T) {
	s, serverWrites := startCountingServer(t, echoBackend(), 0)
	inj := fault.New(1)
	c := dialOpts(t, s, ClientOptions{Fault: inj})
	clientBefore, serverBefore := inj.Decisions(fault.SlowLink), serverWrites.Load() // the handshake
	if clientBefore != 1 || serverBefore != 1 {
		t.Fatalf("handshake took %d client and %d server Writes, want 1 and 1", clientBefore, serverBefore)
	}
	const n = 100
	for i := int64(0); i < n; i++ {
		if res := c.Exec(query.Req("d", "q", []any{i})); res.Err != nil || !interp.Equal(res.Value, 2*i) {
			t.Fatalf("exec %d: %v %v", i, res.Value, res.Err)
		}
	}
	batch := query.BatchReq("d", "q", [][]any{{int64(1)}, {int64(2)}})
	if br := c.ExecBatch(batch); br.Errs[0] != nil || br.Errs[1] != nil {
		t.Fatalf("batch: %v", br.Errs)
	}
	if got := inj.Decisions(fault.SlowLink) - clientBefore; got != n+1 {
		t.Errorf("%d requests took %d client Writes, want one each", n+1, got)
	}
	if got := serverWrites.Load() - serverBefore; got != n+1 {
		t.Errorf("%d replies took %d server Writes, want one each", n+1, got)
	}
}

// Replies that are ready together share Writes: N requests held in the
// backend and released at once are answered in strictly fewer than N Writes.
// (The connection's Write is slowed so that "together" does not depend on how
// many processors the test has; TestFrameWriterCombinesQueuedFrames pins the
// rule itself, without a clock.)
func TestPipelinedRepliesShareWrites(t *testing.T) {
	const n = 32
	release := make(chan struct{})
	var held sync.WaitGroup
	held.Add(n)
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		held.Done()
		<-release
		return query.Ok(req.Args[0])
	}}
	s, serverWrites := startCountingServer(t, backend, time.Millisecond)
	c := dial(t, s)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := int64(0); i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := c.Exec(query.Req("hold", "q", []any{i})); res.Err != nil || !interp.Equal(res.Value, i) {
				errs <- fmt.Errorf("request %d answered (%v, %v)", i, res.Value, res.Err)
			}
		}()
	}
	held.Wait()
	before := serverWrites.Load()
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := serverWrites.Load() - before; got >= n {
		t.Errorf("%d replies released together took %d Writes, want fewer", n, got)
	}
}

// The worker set keeps the front door's promise that a slow request never
// head-of-line-blocks a fast one: sent second on the same connection, the fast
// request is answered while the slow one is still executing.
func TestSlowRequestDoesNotBlockFastOne(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		if req.Name == "slow" {
			close(started)
			<-release
		}
		return query.Ok(req.Name)
	}}
	s := startServer(t, backend, ServerOptions{})
	c := dial(t, s)
	slow := make(chan query.Result, 1)
	go func() { slow <- c.Exec(query.Req("slow", "q", nil)) }()
	<-started
	for i := 0; i < 2*idleWorkers; i++ { // more than the parked set: every one finds or gets a worker
		if res := c.Exec(query.Req("fast", "q", nil)); res.Err != nil || res.Value != "fast" {
			t.Fatalf("fast request behind a slow one: (%v, %v)", res.Value, res.Err)
		}
	}
	select {
	case res := <-slow:
		t.Fatalf("slow request answered before its release: (%v, %v)", res.Value, res.Err)
	default:
	}
	close(release)
	if res := <-slow; res.Err != nil || res.Value != "slow" {
		t.Fatalf("slow request: (%v, %v)", res.Value, res.Err)
	}
}

// waitGoroutines fails the test unless the goroutine count returns to what it
// was before the test built anything.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	after := runtime.NumGoroutine()
	for i := 0; i < 200 && after > before; i++ {
		time.Sleep(5 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines grew from %d to %d\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// The worker set grows with a burst and shrinks when it ends: a 256-deep
// pipelined burst is served by 256 workers at once, the set falls back to
// idleWorkers parked, and after Close not one goroutine is left.
func TestWorkerSetShrinksAndLeaksNothing(t *testing.T) {
	const depth = 256
	before := runtime.NumGoroutine()
	release := make(chan struct{})
	var held sync.WaitGroup
	held.Add(depth)
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		if req.Name == "hold" {
			held.Done()
			<-release
		}
		return query.Ok(req.Args[0])
	}}
	s := NewServer(backend, ServerOptions{})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var wrong atomic.Int64
	for i := int64(0); i < depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := c.Exec(query.Req("hold", "q", []any{i})); res.Err != nil || !interp.Equal(res.Value, i) {
				wrong.Add(1)
			}
		}()
	}
	held.Wait() // all 256 are executing at once: none waited for another's worker
	close(release)
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Errorf("%d of %d pipelined requests answered wrongly", n, depth)
	}
	// The burst is over: one more request still works, and only the parked
	// workers remain beside the two read loops and the accept loop.
	if res := c.Exec(query.Req("after", "q", []any{int64(1)})); res.Err != nil {
		t.Fatalf("after the burst: %v", res.Err)
	}
	waitGoroutines(t, before+3+idleWorkers)
	c.Close()
	s.Close()
	waitGoroutines(t, before)
}

// A request abandoned at its deadline must never have its late response
// delivered to a later request. The slot a response arrives on is pooled, and
// the read loop takes a pending entry under the lock but sends after releasing
// it — so a slot recycled on the timeout path could still receive. Deadline
// expiry is raced against a backend that answers just before, at, or just
// after the deadline, and every answer that arrives must be the asker's own.
func TestAbandonedRequestNeverAnswersALaterOne(t *testing.T) {
	const deadline = 200 * time.Microsecond
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		n, _ := req.Args[0].(int64)
		if req.Name == "racy" {
			time.Sleep(deadline/2 + time.Duration(n%4)*deadline/4)
		}
		return query.Ok(n)
	}}
	s := startServer(t, backend, ServerOptions{})
	c := dial(t, s)
	iterations := 1000
	if testing.Short() {
		iterations = 200
	}
	var wg sync.WaitGroup
	var expired, answered atomic.Int64
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < int64(iterations); i++ {
				n := g<<32 | i
				racy := query.Req("racy", "q", []any{n}).WithDeadline(query.After(deadline))
				switch res := c.Exec(racy); {
				case errors.Is(res.Err, query.ErrDeadlineExceeded):
					expired.Add(1)
				case res.Err != nil || !interp.Equal(res.Value, n):
					t.Errorf("racy request %d answered (%v, %v)", n, res.Value, res.Err)
					return
				default:
					answered.Add(1)
				}
				// The next request reuses the pooled slot at once.
				if res := c.Exec(query.Req("next", "q", []any{-n})); res.Err != nil || !interp.Equal(res.Value, -n) {
					t.Errorf("request after %d answered (%v, %v): a stale response was delivered", n, res.Value, res.Err)
					return
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d expired, %d answered in time", expired.Load(), answered.Load())
}

// A torn frame is the frame encoder's output cut at an injector-seeded offset
// anywhere in [1, len-1]: across seeds the server sees tears inside the
// header as well as inside the payload, never an empty or a whole frame.
func TestTornFrameCutsAnywhere(t *testing.T) {
	req := query.Req("q", testSelect, []any{int64(1)})
	whole := must(t)(finishFrame(must(t)(appendExec(beginFrame(nil, MsgExec), 1, req)), 0))
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	torn := make(chan int)
	go func() { // a front door that completes the handshake and counts what follows
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, _, err := readFrame(conn, nil); err == nil && WriteFrame(conn, MsgHelloAck, EncodeHelloAck()) == nil {
				n, _ := io.Copy(io.Discard, conn)
				torn <- int(n)
			}
			conn.Close()
		}
	}()
	inHeader, inPayload := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		c, err := DialOptions(ln.Addr().String(), ClientOptions{Fault: fault.New(seed).At(fault.TornWrite, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if res := c.Exec(req); res.Err == nil {
			t.Fatalf("seed %d: torn request succeeded", seed)
		}
		switch n := <-torn; {
		case n < 1 || n >= len(whole):
			t.Fatalf("seed %d: %d of %d bytes crossed, want a strict, non-empty prefix", seed, n, len(whole))
		case n < frameHeader:
			inHeader++
		default:
			inPayload++
		}
		c.Close()
	}
	if inHeader == 0 || inPayload == 0 {
		t.Errorf("40 seeds tore %d frames inside the header and %d inside the payload, want both", inHeader, inPayload)
	}
}
