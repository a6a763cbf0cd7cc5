package net

import (
	"encoding/binary"
	"errors"
	"fmt"
	stdnet "net"
	"sync"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/query"
)

// stubBackend is a controllable query.Executor.
type stubBackend struct {
	exec      func(query.Request) query.Result
	execBatch func(query.BatchRequest) query.BatchResult
}

func (b *stubBackend) Exec(req query.Request) query.Result { return b.exec(req) }
func (b *stubBackend) ExecBatch(req query.BatchRequest) query.BatchResult {
	if b.execBatch != nil {
		return b.execBatch(req)
	}
	res := query.BatchResult{Values: make([]any, len(req.ArgSets)), Errs: make([]error, len(req.ArgSets))}
	for i, set := range req.ArgSets {
		r := b.exec(query.Request{Name: req.Name, SQL: req.SQL, Args: set})
		res.Values[i], res.Errs[i] = r.Value, r.Err
	}
	return res
}

// echoBackend doubles its first int argument.
func echoBackend() *stubBackend {
	return &stubBackend{exec: func(req query.Request) query.Result {
		n, _ := req.Args[0].(int64)
		return query.Ok(n * 2)
	}}
}

func startServer(t *testing.T, backend query.Executor, opts ServerOptions) *Server {
	t.Helper()
	s := NewServer(backend, opts)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func dial(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClientServerRoundTrip(t *testing.T) {
	rows := interp.Rows{{"id": int64(1), "v": "a"}, {"id": int64(2), "v": "b"}}
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		switch req.Name {
		case "rows":
			return query.Ok(rows)
		case "err":
			return query.Fail(errors.New("no such table: ghosts"))
		default:
			n, _ := req.Args[0].(int64)
			return query.Ok(n * 2)
		}
	}}
	s := startServer(t, backend, ServerOptions{})
	c := dial(t, s)

	if res := c.Exec(query.Req("double", "q", []any{int64(21)})); res.Err != nil || !interp.Equal(res.Value, int64(42)) {
		t.Fatalf("exec: %v %v", res.Value, res.Err)
	}
	if res := c.Exec(query.Req("rows", "q", []any{int64(0)})); res.Err != nil || !interp.Equal(res.Value, rows) {
		t.Fatalf("rows: %s %v", interp.Format(res.Value), res.Err)
	}
	// Error text must survive the wire exactly (differential byte-identity).
	if res := c.Exec(query.Req("err", "q", []any{int64(0)})); res.Err == nil || res.Err.Error() != "no such table: ghosts" {
		t.Fatalf("err: %v", res.Err)
	}
	br := c.ExecBatch(query.BatchReq("double", "q", [][]any{{int64(1)}, {int64(2)}, {int64(3)}}))
	want := []int64{2, 4, 6}
	for i, v := range br.Values {
		if br.Errs[i] != nil || !interp.Equal(v, want[i]) {
			t.Fatalf("batch member %d: %v %v", i, v, br.Errs[i])
		}
	}
}

func TestConcurrentPipelining(t *testing.T) {
	s := startServer(t, echoBackend(), ServerOptions{})
	c := dial(t, s)
	const clients = 8
	const perClient = 50
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				n := int64(g*1000 + i)
				res := c.Exec(query.Req("d", "q", []any{n}))
				if res.Err != nil {
					errs[g] = res.Err
					return
				}
				if !interp.Equal(res.Value, n*2) {
					errs[g] = fmt.Errorf("response misrouted: sent %d got %v", n, res.Value)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerShedsOverBudgetAndRecovers(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		started <- struct{}{}
		<-release
		return query.Ok(int64(1))
	}}
	s := startServer(t, backend, ServerOptions{MaxInflight: 2})
	c := dial(t, s)

	type out struct{ err error }
	results := make(chan out, 4)
	for i := 0; i < 2; i++ {
		go func() {
			res := c.Exec(query.Req("slow", "q", nil))
			results <- out{res.Err}
		}()
	}
	// Wait until both admitted requests occupy the budget.
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("admitted requests never reached the backend")
		}
	}
	// Budget full: the next requests must shed, not queue.
	for i := 0; i < 2; i++ {
		res := c.Exec(query.Req("extra", "q", nil))
		if !errors.Is(res.Err, query.ErrOverloaded) {
			t.Fatalf("over-budget request got %v, want ErrOverloaded", res.Err)
		}
	}
	if got := s.Admission().Shed(); got != 2 {
		t.Fatalf("shed counter = %d, want 2", got)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if o := <-results; o.err != nil {
			t.Fatalf("admitted request failed: %v", o.err)
		}
	}
	// Budget released: admission recovers.
	if res := c.Exec(query.Req("after", "q", nil)); res.Err != nil {
		t.Fatalf("post-recovery request failed: %v", res.Err)
	}
	a := s.Admission()
	if a.Admitted() != 3 || a.Shed() != 2 {
		t.Fatalf("counters: admitted=%d shed=%d, want 3/2", a.Admitted(), a.Shed())
	}
	if a.Inflight() != 0 {
		t.Fatalf("inflight = %d after drain", a.Inflight())
	}
}

func TestBatchShedsWholeOrAdmitsWhole(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	backend := &stubBackend{
		exec: func(req query.Request) query.Result { return query.Ok(int64(0)) },
		execBatch: func(req query.BatchRequest) query.BatchResult {
			started <- struct{}{}
			<-release
			return query.BatchResult{Values: make([]any, len(req.ArgSets)), Errs: make([]error, len(req.ArgSets))}
		},
	}
	s := startServer(t, backend, ServerOptions{MaxInflight: 3})
	c := dial(t, s)
	done := make(chan query.BatchResult, 1)
	go func() {
		done <- c.ExecBatch(query.BatchReq("b", "q", [][]any{{int64(1)}, {int64(2)}}))
	}()
	<-started // 2 of 3 units held
	// A 2-member batch does not fit in the remaining 1 unit: every member
	// sheds with ErrOverloaded, none executes.
	br := c.ExecBatch(query.BatchReq("b", "q", [][]any{{int64(3)}, {int64(4)}}))
	for i, err := range br.Errs {
		if !errors.Is(err, query.ErrOverloaded) {
			t.Fatalf("member %d: %v, want ErrOverloaded", i, err)
		}
	}
	// A single Exec fits in the remaining unit.
	if res := c.Exec(query.Req("one", "q", nil)); res.Err != nil {
		t.Fatalf("single request should fit: %v", res.Err)
	}
	close(release)
	if br := <-done; br.Errs[0] != nil || br.Errs[1] != nil {
		t.Fatalf("admitted batch failed: %v", br.Errs)
	}
}

// A batch of more bindings than the whole budget is not shed forever: idle,
// it is admitted and runs alone; what arrives meanwhile sheds; the budget
// returns to zero after it.
func TestBatchLargerThanBudgetRunsAlone(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	backend := &stubBackend{
		exec: func(req query.Request) query.Result { return query.Ok(int64(0)) },
		execBatch: func(req query.BatchRequest) query.BatchResult {
			started <- struct{}{}
			<-release
			return query.BatchResult{Values: make([]any, len(req.ArgSets)), Errs: make([]error, len(req.ArgSets))}
		},
	}
	s := startServer(t, backend, ServerOptions{MaxInflight: 4})
	c := dial(t, s)
	sets := make([][]any, 16)
	for i := range sets {
		sets[i] = []any{int64(i)}
	}
	done := make(chan query.BatchResult, 1)
	go func() { done <- c.ExecBatch(query.BatchReq("b", "q", sets)) }()
	select {
	case <-started:
	case br := <-done:
		t.Fatalf("16-binding batch on an idle budget of 4 was refused: %v", br.Errs[0])
	}
	if res := c.Exec(query.Req("one", "q", nil)); !errors.Is(res.Err, query.ErrOverloaded) {
		t.Fatalf("request beside the oversized batch got %v, want ErrOverloaded", res.Err)
	}
	close(release)
	br := <-done
	for i, err := range br.Errs {
		if err != nil {
			t.Fatalf("member %d of the admitted batch: %v", i, err)
		}
	}
	if got := s.Admission().Inflight(); got != 0 {
		t.Fatalf("inflight = %d after the batch, want 0", got)
	}
	if res := c.Exec(query.Req("after", "q", nil)); res.Err != nil {
		t.Fatalf("request after the batch: %v", res.Err)
	}
}

func TestClientDeadlineAbandonsSlowRequest(t *testing.T) {
	release := make(chan struct{})
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		if req.Name == "slow" {
			<-release
		}
		return query.Ok(int64(7))
	}}
	s := startServer(t, backend, ServerOptions{})
	c := dial(t, s)

	start := time.Now()
	res := c.Exec(query.Req("slow", "q", nil).WithDeadline(query.After(30 * time.Millisecond)))
	if !errors.Is(res.Err, query.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", res.Err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline return took %v", elapsed)
	}
	close(release)
	// The abandoned request's late response must not poison the connection
	// or be delivered to the next request.
	for i := 0; i < 3; i++ {
		if res := c.Exec(query.Req("fast", "q", nil)); res.Err != nil || !interp.Equal(res.Value, int64(7)) {
			t.Fatalf("connection unusable after abandoned request: %v %v", res.Value, res.Err)
		}
	}
}

func TestServerRejectsExpiredDeadline(t *testing.T) {
	executed := false
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		executed = true
		return query.Ok(int64(0))
	}}
	s := startServer(t, backend, ServerOptions{})

	// Hand-roll the connection so an already-expired deadline actually
	// crosses the wire (the Client would reject it locally).
	conn, err := stdnet.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, MsgHello, EncodeHello()); err != nil {
		t.Fatal(err)
	}
	if msgType, _, err := ReadFrame(conn); err != nil || msgType != MsgHelloAck {
		t.Fatalf("handshake: %d %v", msgType, err)
	}
	req := query.Req("late", "q", nil)
	req.Deadline = query.FromUnixNanos(1) // 1970: long expired
	payload, err := EncodeExec(5, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, MsgExec, payload); err != nil {
		t.Fatal(err)
	}
	msgType, respPayload, err := ReadFrame(conn)
	if err != nil || msgType != MsgResult {
		t.Fatalf("response: %d %v", msgType, err)
	}
	id, res, err := DecodeResult(respPayload)
	if err != nil || id != 5 {
		t.Fatalf("decode: id=%d %v", id, err)
	}
	if !errors.Is(res.Err, query.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", res.Err)
	}
	if executed {
		t.Fatal("expired request reached the backend")
	}
}

func TestVersionMismatchClosesConnection(t *testing.T) {
	s := startServer(t, echoBackend(), ServerOptions{})
	conn, err := stdnet.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := EncodeHello()
	binary.BigEndian.PutUint16(hello[4:6], Version+1)
	if err := WriteFrame(conn, MsgHello, hello); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := ReadFrame(conn); err == nil {
		t.Fatal("server answered a mismatched version")
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		<-release
		return query.Ok(int64(0))
	}}
	s := startServer(t, backend, ServerOptions{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan query.Result, 1)
	go func() { done <- c.Exec(query.Req("hang", "q", nil)) }()
	time.Sleep(20 * time.Millisecond) // let the request reach the wire
	c.Close()
	select {
	case res := <-done:
		if !errors.Is(res.Err, ErrClientClosed) {
			t.Fatalf("got %v, want ErrClientClosed", res.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending request hung across Close")
	}
	if res := c.Exec(query.Req("after", "q", nil)); res.Err == nil {
		t.Fatal("closed client accepted a request")
	}
}
