package net

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	stdnet "net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/sqlmini"
	"repro/internal/storage"
)

// door is one connection to a front door over an in-memory pipe, past the
// handshake. A Write on the pipe returns only when the door has read all of
// it, in as few reads as its buffer allows, so frames written in one Write of
// under 4 KiB are in the door's buffer together: which frames form a set does
// not depend on scheduling.
type door struct {
	s      *Server
	c      stdnet.Conn
	r      *bufio.Reader
	writes *atomic.Int64 // the door's Writes since the handshake
}

func pipeDoor(t testing.TB, backend query.Executor, opts ServerOptions) *door {
	t.Helper()
	s := NewServer(backend, opts)
	cli, srv := stdnet.Pipe()
	writes := new(atomic.Int64)
	s.wg.Add(1)
	go s.serveConn(&countingConn{Conn: srv, writes: writes})
	t.Cleanup(func() {
		cli.Close()
		s.Close()
	})
	if err := WriteFrame(cli, MsgHello, EncodeHello()); err != nil {
		t.Fatal(err)
	}
	d := &door{s: s, c: cli, r: bufio.NewReader(cli), writes: writes}
	if msgType, _, err := readFrame(d.r, nil); err != nil || msgType != MsgHelloAck {
		t.Fatalf("handshake: type %d, %v", msgType, err)
	}
	writes.Store(0)
	return d
}

// burst writes the frames back to back, in one Write per part when cut splits
// them at a byte offset (0: one Write). It returns at once: the pipe's Write
// waits for the door's reads.
func (d *door) burst(cut int, frames ...[]byte) {
	b := bytes.Join(frames, nil)
	go func() {
		if cut > 0 {
			if _, err := d.c.Write(b[:cut]); err != nil {
				return
			}
			b = b[cut:]
		}
		d.c.Write(b)
	}()
}

// replies reads n reply frames and returns them by request id, failing on an
// id answered twice.
func (d *door) replies(t testing.TB, n int) map[uint64]query.Reply {
	t.Helper()
	got := make(map[uint64]query.Reply, n)
	for range n {
		msgType, payload, err := readFrame(d.r, nil)
		if err != nil {
			t.Fatalf("after %d replies: %v", len(got), err)
		}
		r := &reader{b: payload}
		id, rep := r.reply(msgType == MsgBatchResult)
		if r.err != nil {
			t.Fatalf("reply %d: %v", id, r.err)
		}
		if _, twice := got[id]; twice {
			t.Fatalf("request %d answered twice", id)
		}
		got[id] = rep
	}
	return got
}

func batchFrame(t testing.TB, id uint64, req query.BatchRequest) []byte {
	b, err := appendExecBatch(beginFrame(nil, MsgExecBatch), id, req)
	if err == nil {
		b, err = finishFrame(b, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func execFrame(t testing.TB, id uint64, req query.Request) []byte {
	b, err := appendExec(beginFrame(nil, MsgExec), id, req)
	if err == nil {
		b, err = finishFrame(b, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ints is a batch's bindings, one int argument each.
func ints(args ...int64) [][]any {
	sets := make([][]any, len(args))
	for i, a := range args {
		sets[i] = []any{a}
	}
	return sets
}

// recorder is a backend that answers a batch binding with twice its int
// argument, fails a negative one on its own, and fails every binding of a call
// whose statement is "fail" with one error; a single Exec is answered with its
// name. It records the bindings of every batch call it runs.
type recorder struct {
	mu    sync.Mutex
	calls [][]int64
}

func (rec *recorder) backend() *stubBackend {
	return &stubBackend{
		exec: func(req query.Request) query.Result { return query.Ok(req.Name) },
		execBatch: func(req query.BatchRequest) query.BatchResult {
			args := make([]int64, len(req.ArgSets))
			for i, set := range req.ArgSets {
				args[i] = set[0].(int64)
			}
			rec.mu.Lock()
			rec.calls = append(rec.calls, args)
			rec.mu.Unlock()
			if req.SQL == "fail" {
				return query.FailAll(len(args), errors.New("whole call failed"))
			}
			res := query.BatchResult{Values: make([]any, len(args)), Errs: make([]error, len(args))}
			for i, a := range args {
				if a < 0 {
					res.Errs[i] = fmt.Errorf("binding %d fails", a)
				} else {
					res.Values[i] = 2 * a
				}
			}
			return res
		},
	}
}

// recorded is what the recorder answers a batch of sql over args with.
func recorded(sql string, args ...int64) query.Reply {
	rep := query.Reply{Values: make([]any, len(args)), Errs: make([]error, len(args))}
	for i, a := range args {
		switch {
		case sql == "fail":
			rep.Errs[i] = errors.New("whole call failed")
		case a < 0:
			rep.Errs[i] = fmt.Errorf("binding %d fails", a)
		default:
			rep.Values[i] = 2 * a
		}
	}
	return rep
}

// sameReply compares two replies slot by slot, errors by text.
func sameReply(got, want query.Reply) bool {
	if !interp.Equal(got.Value, want.Value) || fmt.Sprint(got.Err) != fmt.Sprint(want.Err) ||
		len(got.Values) != len(want.Values) || len(got.Errs) != len(want.Errs) {
		return false
	}
	for i := range want.Values {
		if !interp.Equal(got.Values[i], want.Values[i]) || fmt.Sprint(got.Errs[i]) != fmt.Sprint(want.Errs[i]) {
			return false
		}
	}
	return true
}

func checkReplies(t testing.TB, got, want map[uint64]query.Reply) {
	t.Helper()
	for id, w := range want {
		if g, ok := got[id]; !ok || !sameReply(g, w) {
			t.Errorf("request %d answered %+v, want %+v", id, g, w)
		}
	}
}

// Batch frames of one statement written in one burst reach the backend as one
// call, their bindings in frame order, and their replies leave in one Write,
// each under its own id with its own bindings' values.
func TestSameStatementBatchesRunAsOneCall(t *testing.T) {
	rec := &recorder{}
	reg := obs.NewRegistry()
	d := pipeDoor(t, rec.backend(), ServerOptions{Metrics: reg})
	members := map[uint64][]int64{1: {1, 2}, 2: {3}, 3: {4}, 4: {5, 6, 7}}
	var frames [][]byte
	want := map[uint64]query.Reply{}
	for id := uint64(1); id <= 4; id++ {
		frames = append(frames, batchFrame(t, id, query.BatchReq("s", "q", ints(members[id]...))))
		want[id] = recorded("q", members[id]...)
	}
	d.burst(0, frames...)
	checkReplies(t, d.replies(t, 4), want)
	if got := fmt.Sprint(rec.calls); got != "[[1 2 3 4 5 6 7]]" {
		t.Errorf("backend calls %s, want one call of every binding in frame order", got)
	}
	if got := d.writes.Load(); got != 1 {
		t.Errorf("the set's four replies took %d Writes, want 1", got)
	}
	if got := reg.Counter("net.batches.joined").Load(); got != 3 {
		t.Errorf("net.batches.joined = %d, want 3", got)
	}
	if got := reg.Counter("net.batches").Load(); got != 4 {
		t.Errorf("net.batches = %d, want 4: every member is admitted as itself", got)
	}
	if got := d.s.Admission().Inflight(); got != 0 {
		t.Errorf("inflight %d after the set, want 0", got)
	}
}

// A set is only ever batches of one statement, with bindings and no deadline,
// already whole in the door's buffer and admitted: a single Exec, an empty
// batch, another statement, a batch with a deadline, a frame still arriving
// and a shed batch never ride another request's call, and each is answered as
// itself.
func TestWhatNeverJoinsASet(t *testing.T) {
	head := func(t *testing.T) []byte { return batchFrame(t, 1, query.BatchReq("s", "q", ints(1))) }
	later := query.BatchReq("s", "q", ints(2))
	later.Deadline = query.After(time.Hour)
	cases := []struct {
		name   string
		budget int
		frames func(t *testing.T) [][]byte
		cut    int    // split the burst here (0: one Write)
		calls  string // the backend's batch calls, in either order
		second query.Reply
	}{
		{"single exec", 0, func(t *testing.T) [][]byte {
			return [][]byte{head(t), execFrame(t, 2, query.Req("s", "q", []any{int64(2)}))}
		}, 0, "[[1]]", query.Reply{Value: "s"}},
		{"empty batch", 0, func(t *testing.T) [][]byte {
			return [][]byte{head(t), batchFrame(t, 2, query.BatchReq("s", "q", ints()))}
		}, 0, "[[1] []]", recorded("q")},
		{"another statement", 0, func(t *testing.T) [][]byte {
			return [][]byte{head(t), batchFrame(t, 2, query.BatchReq("s", "r", ints(2)))}
		}, 0, "[[1] [2]]", recorded("r", 2)},
		{"another name", 0, func(t *testing.T) [][]byte {
			return [][]byte{head(t), batchFrame(t, 2, query.BatchReq("t", "q", ints(2)))}
		}, 0, "[[1] [2]]", recorded("q", 2)},
		{"member with a deadline", 0, func(t *testing.T) [][]byte {
			return [][]byte{head(t), batchFrame(t, 2, later)}
		}, 0, "[[1] [2]]", recorded("q", 2)},
		{"head with a deadline", 0, func(t *testing.T) [][]byte {
			dl := query.BatchReq("s", "q", ints(1))
			dl.Deadline = query.After(time.Hour)
			return [][]byte{batchFrame(t, 1, dl), batchFrame(t, 2, query.BatchReq("s", "q", ints(2)))}
		}, 0, "[[1] [2]]", recorded("q", 2)},
		{"length prefix still arriving", 0, func(t *testing.T) [][]byte {
			return [][]byte{head(t), batchFrame(t, 2, query.BatchReq("s", "q", ints(2)))}
		}, -3, "[[1] [2]]", recorded("q", 2)},
		{"payload still arriving", 0, func(t *testing.T) [][]byte {
			return [][]byte{head(t), batchFrame(t, 2, query.BatchReq("s", "q", ints(2)))}
		}, frameHeader + 2, "[[1] [2]]", recorded("q", 2)},
		{"shed", 1, func(t *testing.T) [][]byte {
			return [][]byte{head(t), batchFrame(t, 2, query.BatchReq("s", "q", ints(2)))}
		}, 0, "[[1]]", query.Reply{Values: []any{nil}, Errs: []error{query.ErrOverloaded}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{}
			reg := obs.NewRegistry()
			d := pipeDoor(t, rec.backend(), ServerOptions{MaxInflight: tc.budget, Metrics: reg})
			frames := tc.frames(t)
			cut := tc.cut
			switch {
			case cut < 0: // inside the second frame's length prefix
				cut = len(frames[0]) - cut
			case cut > 0:
				cut += len(frames[0])
			}
			d.burst(cut, frames...)
			checkReplies(t, d.replies(t, 2), map[uint64]query.Reply{1: recorded("q", 1), 2: tc.second})
			rec.mu.Lock()
			calls := rec.calls
			rec.mu.Unlock()
			sort.Slice(calls, func(i, j int) bool { return fmt.Sprint(calls[i]) < fmt.Sprint(calls[j]) })
			if got := fmt.Sprint(calls); got != tc.calls {
				t.Errorf("backend calls %s, want %s", got, tc.calls)
			}
			if got := reg.Counter("net.batches.joined").Load(); got != 0 {
				t.Errorf("net.batches.joined = %d, want 0", got)
			}
		})
	}
}

// A failure of the set's one call fails every binding of every member with
// the error the call returned; an error of one binding stays with the member
// that sent it.
func TestSetErrorRouting(t *testing.T) {
	srv := server.New(server.SYS1(), 0)
	t.Cleanup(srv.Close)
	tbl := srv.Catalog().CreateTable("t", storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TInt},
		storage.Column{Name: "name", Type: storage.TString},
	))
	for i := int64(0); i < 8; i++ {
		if _, err := tbl.Insert([]any{i, fmt.Sprint("n", i)}); err != nil {
			t.Fatal(err)
		}
	}
	srv.FinishLoad()
	d := pipeDoor(t, srv, ServerOptions{})
	failsWhole := func(sql string, want error) {
		t.Helper()
		d.burst(0,
			batchFrame(t, 1, query.BatchReq("s", sql, ints(1, 2))),
			batchFrame(t, 2, query.BatchReq("s", sql, ints(3))),
			batchFrame(t, 3, query.BatchReq("s", sql, ints(4, 5))))
		for id, rep := range d.replies(t, 3) {
			if len(rep.Errs) != map[uint64]int{1: 2, 2: 1, 3: 2}[id] {
				t.Fatalf("request %d: %d bindings answered", id, len(rep.Errs))
			}
			for i, err := range rep.Errs {
				if err == nil || err.Error() != want.Error() {
					t.Errorf("%q: request %d binding %d: %v, want %v", sql, id, i, err, want)
				}
			}
		}
	}
	_, parseErr := sqlmini.Parse("select from")
	if parseErr == nil {
		t.Fatal("statement parsed")
	}
	failsWhole("select from", parseErr)
	srv.FailNext(1) // one fault: the set is one call, so every member meets it
	failsWhole("select name from t where id = ?", server.ErrInjected)
	d.burst(0,
		batchFrame(t, 1, query.BatchReq("s", "select name from t where id = ?", ints(1))),
		batchFrame(t, 2, query.BatchReq("s", "select name from t where id = ?", ints(2))))
	for id, rep := range d.replies(t, 2) {
		if rep.Errs[0] != nil || !interp.Equal(rep.Values[0], interp.Rows{{"name": fmt.Sprint("n", id)}}) {
			t.Errorf("request %d after the fault: %v %v", id, rep.Values, rep.Errs)
		}
	}

	rec := &recorder{}
	d = pipeDoor(t, rec.backend(), ServerOptions{})
	d.burst(0,
		batchFrame(t, 1, query.BatchReq("s", "q", ints(1, -2))),
		batchFrame(t, 2, query.BatchReq("s", "q", ints(-3))),
		batchFrame(t, 3, query.BatchReq("s", "q", ints(4))))
	checkReplies(t, d.replies(t, 3), map[uint64]query.Reply{1: recorded("q", 1, -2), 2: recorded("q", -3), 3: recorded("q", 4)})
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if got := fmt.Sprint(rec.calls); got != "[[1 -2 -3 4]]" {
		t.Errorf("backend calls %s, want one", got)
	}
}

// FuzzBatchSets writes a burst of requests in one Write to a door over the
// recorder: batches of three statements (one of which fails the whole call)
// with up to three bindings, some failing on their own, some with a deadline,
// and single Execs between them. Every request is answered exactly once, under
// its own id, with its own bindings' values and errors in order; every binding
// is executed exactly once, in a call of its own statement, in frame order.
func FuzzBatchSets(f *testing.F) {
	f.Add([]byte{0x04, 0x04, 0x08, 0x0c})
	f.Add([]byte{0x04, 0x05, 0x06, 0x07, 0x14, 0x88, 0x04})
	f.Add([]byte{0x0c, 0x1c, 0x3c, 0x7c, 0x00, 0x00, 0x0e, 0x0e})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		rec := &recorder{}
		d := pipeDoor(t, rec.backend(), ServerOptions{})
		frames := make([][]byte, len(data))
		want := make(map[uint64]query.Reply, len(data))
		stmtOf := map[int64]string{} // binding argument magnitude → its statement
		for i, b := range data {
			id := uint64(i + 1)
			if b&3 == 3 {
				frames[i] = execFrame(t, id, query.Req("s", "q", nil))
				want[id] = query.Reply{Value: "s"}
				continue
			}
			sql := []string{"q", "r", "fail"}[b&3]
			args := make([]int64, int(b>>2)&3)
			for k := range args {
				args[k] = int64(i*4 + k + 1)
				stmtOf[args[k]] = sql
				if b>>(4+k)&1 == 1 {
					args[k] = -args[k]
				}
			}
			req := query.BatchReq("s", sql, ints(args...))
			if b&0x80 != 0 {
				req.Deadline = query.After(time.Hour)
			}
			frames[i] = batchFrame(t, id, req)
			want[id] = recorded(sql, args...)
		}
		d.burst(0, frames...)
		checkReplies(t, d.replies(t, len(data)), want)

		rec.mu.Lock()
		defer rec.mu.Unlock()
		ran := 0
		for _, call := range rec.calls {
			for k, a := range call {
				a = max(a, -a)
				if k > 0 && a <= max(call[k-1], -call[k-1]) {
					t.Errorf("call %v: bindings out of frame order", call)
				}
				if stmtOf[a] != stmtOf[max(call[0], -call[0])] {
					t.Errorf("call %v mixes statements", call)
				}
				ran++
			}
		}
		if ran != len(stmtOf) {
			t.Errorf("%d bindings executed, want %d", ran, len(stmtOf))
		}
	})
}

// A client's own pipelined batches of one statement — four callers on one
// connection, as the client runtime's pool sends them — are answered right
// over TCP whether or not they arrived together.
func TestPipelinedBatchesOverTCP(t *testing.T) {
	rec := &recorder{}
	s := startServer(t, rec.backend(), ServerOptions{})
	c := dial(t, s)
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				a := g*1000 + i
				br := c.ExecBatch(query.BatchReq("s", "q", ints(a, -a-1, a+500)))
				if !sameReply(query.Reply{Values: br.Values, Errs: br.Errs}, recorded("q", a, -a-1, a+500)) {
					t.Errorf("caller %d batch %d answered %v %v", g, i, br.Values, br.Errs)
					return
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("800 batches ran as %d backend calls", len(rec.calls))
}
