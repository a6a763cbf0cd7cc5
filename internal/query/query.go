// Package query defines the request/response vocabulary shared by every
// execution layer: the network front door, the async executor, the batch
// coalescer, the shard router, the replica group and the simulated server
// all speak the same pair of calls,
//
//	Exec(req Request) Result
//	ExecBatch(req BatchRequest) BatchResult
//
// instead of one method per combination of (traced, batched, deadline-bound).
// A Request carries everything that used to be threaded through method-name
// variants — the optional trace span and the request deadline — so adding a
// new cross-cutting field (deadlines were the forcing case) costs one struct
// field instead of doubling an Exec* surface.
//
// The package is a leaf: it depends only on obs (spans), sqlmini (ExecInfo)
// and interp (the value vocabulary), so every layer can import it without
// cycles.
package query

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/sqlmini"
)

// ErrOverloaded is returned (or sent over the wire) when admission control
// sheds a request instead of queueing it. The promise: the request was
// rejected before any side effect — it did not execute, did not touch the
// WAL, and may be retried.
var ErrOverloaded = errors.New("query: server overloaded")

// ErrConnLost is returned when the connection carrying a request died with
// the request's outcome unknown: the frame (or its response) was lost with
// the stream. It is the retryable transport sentinel — an idempotent read
// may be re-sent on a new connection; a write must not be, because the
// server may have executed it before the connection died (the client
// re-sends a write only when it can prove the frame never fully left this
// process, in which case the server cannot have seen it).
var ErrConnLost = errors.New("query: connection lost")

// ErrDeadlineExceeded is returned when a request's deadline expires before
// the layer holding it could finish. A write rejected with this error
// before the primary executed it had no effect; a write abandoned in the
// WAL commit wait may have executed but was never acknowledged — either
// way the client receives exactly one error and never a half-ack.
var ErrDeadlineExceeded = errors.New("query: deadline exceeded")

// Request is one statement execution. Name/SQL/Args are required; the rest
// are optional cross-cutting context:
//
//   - Span: parent trace span; layers hang their children off it. Nil
//     means untraced (obs spans are nil-safe).
//   - Deadline: absolute give-up time. The zero Deadline never expires.
type Request struct {
	Name string
	SQL  string
	Args []any

	Span     *obs.Span
	Deadline Deadline
}

// Req builds a plain Request — the common test/caller shorthand.
func Req(name, sql string, args []any) Request {
	return Request{Name: name, SQL: sql, Args: args}
}

// WithSpan returns a copy of the request carrying sp.
func (r Request) WithSpan(sp *obs.Span) Request { r.Span = sp; return r }

// WithDeadline returns a copy of the request carrying dl.
func (r Request) WithDeadline(dl Deadline) Request { r.Deadline = dl; return r }

// BatchRequest is one set-oriented execution: the same statement over
// ArgSets, submitted in a single round trip. Context fields mirror
// Request and apply to the batch as a whole.
type BatchRequest struct {
	Name    string
	SQL     string
	ArgSets [][]any

	Span     *obs.Span
	Deadline Deadline
}

// BatchReq builds a plain BatchRequest.
func BatchReq(name, sql string, argSets [][]any) BatchRequest {
	return BatchRequest{Name: name, SQL: sql, ArgSets: argSets}
}

// WithSpan returns a copy of the batch request carrying sp.
func (r BatchRequest) WithSpan(sp *obs.Span) BatchRequest { r.Span = sp; return r }

// Result is the outcome of one Exec. Exactly one of Value/Err is
// meaningful; Info carries the executor's page/row accounting when the
// backend produces it (zero otherwise).
type Result struct {
	Value any
	Err   error
	Info  sqlmini.ExecInfo
}

// Pair unpacks the result into the classic (value, error) shape.
func (r Result) Pair() (any, error) { return r.Value, r.Err }

// Ok wraps a successful value.
func Ok(v any) Result { return Result{Value: v} }

// Fail wraps an error.
func Fail(err error) Result { return Result{Err: err} }

// BatchResult is the outcome of one ExecBatch: Values[i]/Errs[i]
// correspond to ArgSets[i]. Both slices always have len(ArgSets).
type BatchResult struct {
	Values []any
	Errs   []error
	Info   sqlmini.ExecInfo
}

// Pair unpacks the batch result into the classic (values, errs) shape.
func (b BatchResult) Pair() ([]any, []error) { return b.Values, b.Errs }

// FailAll builds a BatchResult with every member failed with err.
func FailAll(n int, err error) BatchResult {
	b := BatchResult{Values: make([]any, n), Errs: make([]error, n)}
	for i := range b.Errs {
		b.Errs[i] = err
	}
	return b
}

// Executor is the single execution surface every layer implements:
// server.Server, replica.Group, shard.Router, the net client — all are
// Executors, so layers stack by wrapping one Executor in another.
type Executor interface {
	Exec(req Request) Result
	ExecBatch(req BatchRequest) BatchResult
}

// Doer is the form in which the execution layers call each other: the call
// and its reply by pointer, either shape, and a row result left columnar
// (*interp.RowSet) on its way to the wire. rep must be the zero Reply. The
// server, the replica group and the shard router implement it behind their
// Exec/ExecBatch, which are Do followed by the reply's Result/BatchResult.
type Doer interface {
	Do(c *Call, rep *Reply)
}

// Call is one submission of either shape, so that a layer can state each
// request-path decision once and have both Exec and ExecBatch run it. A
// single call binds Args; a batch call binds ArgSets, which is non-nil even
// when empty — that is what tells the two apart, so batch calls are built
// only by BatchCall. Everything else (statement, span, deadline) is common to
// both shapes.
//
// The layers pass a Call and its Reply down by pointer: by value, every hop
// would put both structs (a Call is 112 bytes) in every frame, and requests
// run on goroutines whose stacks grow by copying (see GrowStack). A layer
// that re-scopes a call for one hop (its span) does so in place and puts it
// back; a copy is made only where it must differ for longer: the router's
// fan-out legs, each with its own bindings, and the replica group's primary
// write, which carries no deadline.
type Call struct {
	Request
	ArgSets [][]any
}

// BatchCall is the Call form of a BatchRequest.
func BatchCall(req BatchRequest) Call {
	c := Call{
		Request: Request{Name: req.Name, SQL: req.SQL, Span: req.Span, Deadline: req.Deadline},
		ArgSets: req.ArgSets,
	}
	if c.ArgSets == nil {
		c.ArgSets = [][]any{}
	}
	return c
}

// Batch reports whether the call is set-oriented.
func (c Call) Batch() bool { return c.ArgSets != nil }

// Units is the number of bindings the call executes.
func (c Call) Units() int {
	if c.Batch() {
		return len(c.ArgSets)
	}
	return 1
}

// On submits the call to e and stores the outcome in rep: through Do when e
// has it, else through the public entry point matching the call's shape (a
// test fake or a tracing shim wraps only those).
func (c *Call) On(e Executor, rep *Reply) {
	if d, ok := e.(Doer); ok {
		d.Do(c, rep)
		return
	}
	if !c.Batch() {
		res := e.Exec(c.Request)
		*rep = Reply{Value: res.Value, Err: res.Err, Info: res.Info}
		return
	}
	res := e.ExecBatch(BatchRequest{
		Name: c.Name, SQL: c.SQL, ArgSets: c.ArgSets,
		Span: c.Span, Deadline: c.Deadline,
	})
	*rep = Reply{Values: res.Values, Errs: res.Errs, Info: res.Info}
}

// Fail makes rep the reply that fails every binding of the call with err.
func (c *Call) Fail(err error, rep *Reply) {
	if !c.Batch() {
		*rep = Reply{Err: err}
		return
	}
	res := FailAll(len(c.ArgSets), err)
	*rep = Reply{Values: res.Values, Errs: res.Errs}
}

// Reply is the outcome of a Call: Value/Err answer a single call,
// Values/Errs (one slot per binding) a batch call; Info is the backend's
// accounting for either. A row result is a *interp.RowSet when the call was
// served by a Doer, interp.Rows when it came through Exec/ExecBatch.
type Reply struct {
	Value  any
	Err    error
	Values []any
	Errs   []error
	Info   sqlmini.ExecInfo
}

// Result is the reply to a single call in the public Exec shape. Together
// with BatchResult it is the one place a columnar row result is boxed into the
// interpreter's interp.Rows.
func (r *Reply) Result() Result {
	return Result{Value: boxed(r.Value), Err: r.Err, Info: r.Info}
}

// BatchResult is the reply to a batch call in the public ExecBatch shape; it
// boxes the reply's row results in place.
func (r *Reply) BatchResult() BatchResult {
	for i, v := range r.Values {
		r.Values[i] = boxed(v)
	}
	return BatchResult{Values: r.Values, Errs: r.Errs, Info: r.Info}
}

func boxed(v any) any {
	if rs, ok := v.(*interp.RowSet); ok {
		return rs.Rows()
	}
	return v
}

// FirstErr returns the reply's first error in binding order, or nil.
func (r *Reply) FirstErr() error {
	if r.Err != nil {
		return r.Err
	}
	for _, err := range r.Errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// requestStack is comfortably more than the deepest request path uses below
// a fresh goroutine: front door → router → group → server → sqlmini is about
// 8 KB of frames.
const requestStack = 12 << 10

// GrowStack sizes the calling goroutine's stack for a request in one step.
// A goroutine starts with 2 KB and doubles by copying every time a call
// finds no room, so a goroutine that runs requests would copy its stack at 2,
// 4 and 8 KB of depth — the last copy alone costs microseconds. Asking for
// the whole depth while the stack is still nearly empty makes that one cheap
// copy, which a Workers worker pays once for all the requests it runs. (Not
// inlined: the reserve must be gone from the stack again by the time the
// request runs.)
//
//go:noinline
func GrowStack() {
	var reserve [requestStack]byte
	keepStack(&reserve)
}

//go:noinline
func keepStack(*[requestStack]byte) {}

// Workers is a set of goroutines that run jobs of type J and park between
// them (a door connection's requests, a router's fan-out legs). Go hands a job
// to a parked worker or starts one; a worker sizes its stack once, runs its
// first job and each one Park gives it, and parks only while fewer than idle
// others do: the set grows with a burst and shrinks after it.
type Workers[J any] struct {
	work   func(first J)
	idle   int32
	jobs   chan J // unbuffered: a send succeeds only into a parked worker
	parked atomic.Int32
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewWorkers returns an empty set of workers that run work, at most idle parked.
func NewWorkers[J any](idle int, work func(first J)) *Workers[J] {
	return &Workers[J]{work: work, idle: int32(idle), jobs: make(chan J)}
}

// Go hands a copy of *j to a parked worker, or starts a worker with it. It
// must not run concurrently with Close; after it, each job gets a worker.
func (w *Workers[J]) Go(j *J) {
	if !w.closed.Load() {
		select {
		case w.jobs <- *j:
			return
		default:
		}
	}
	w.wg.Add(1)
	go w.start(*j)
}

func (w *Workers[J]) start(j J) {
	defer w.wg.Done()
	GrowStack()
	w.work(j)
}

// Park clears *j (a parked worker pins nothing) and waits for the next job.
// False means return: idle others are parked already, or the set is closed.
func (w *Workers[J]) Park(j *J) (ok bool) {
	*j = *new(J)
	if w.parked.Add(1) <= w.idle {
		*j, ok = <-w.jobs
	}
	w.parked.Add(-1)
	return ok
}

// Close releases the parked workers and waits until every worker has
// returned; one running a job finishes it first.
func (w *Workers[J]) Close() {
	if w.closed.CompareAndSwap(false, true) {
		close(w.jobs)
	}
	w.wg.Wait()
}
