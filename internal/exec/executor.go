// Package exec is the asynchronous client runtime: a fixed-size worker pool
// that plays the role of java.util.concurrent's Executor framework in the
// paper's rewritten programs (§VI). Submitted queries are queued and executed
// by the pool; Fetch blocks on the per-query handle (the observer model of
// §II).
//
// The hot path is allocation-lean: one allocation per submission (the Handle
// the caller keeps). Job structs are pooled, the FIFO queue is a growable ring
// buffer instead of an append+reslice slice, handles signal completion
// through an embedded mutex/cond pair instead of a dedicated channel, and
// the statistics counters are atomics folded into the enqueue/dequeue path
// so observers can never see completed > submitted.
package exec

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/query"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("exec: executor closed")

// Runner executes one request; it is the bridge to the database client
// session (or any other request transport, e.g. a web-service client). The
// request carries everything the backend needs — trace span and deadline —
// so there is exactly one runner shape per layer.
type Runner func(req query.Request) query.Result

// BatchRunner executes one prepared statement against a set of parameter
// bindings in a single server round trip (the set-oriented sibling of Runner;
// see internal/batch and server.ExecBatch). It returns one result and one
// error per binding, in binding order.
type BatchRunner func(req query.BatchRequest) query.BatchResult

// runners presents the caller's two functions as a query.Executor, so a
// worker hands a Call to the backend through Call.On like every layer below.
type runners struct {
	run      Runner
	runBatch BatchRunner
}

func (r *runners) Exec(req query.Request) query.Result { return r.run(req) }

func (r *runners) ExecBatch(req query.BatchRequest) query.BatchResult { return r.runBatch(req) }

// Owner is told when the backend has answered a call it enqueued, before the
// call's handles complete (internal/batch counts its batches in flight with
// it). Returned runs on a worker and may Enqueue; a refused call is never
// reported.
type Owner interface{ Returned() }

// Handle is a pending asynchronous request.
type Handle struct {
	mu   sync.Mutex
	cond sync.Cond
	done atomic.Bool
	val  any
	err  error
	// span, when tracing is on, is the request's root span; complete()
	// ends it, so the root's wall time is exactly submit→completion.
	span *obs.Span
}

func newHandle(sp *obs.Span) *Handle {
	h := &Handle{span: sp}
	h.cond.L = &h.mu
	return h
}

// complete publishes the result and wakes all fetchers. val and err are
// written before the atomic done flag, so the lock-free fast path in Fetch
// observes them fully.
func (h *Handle) complete(v any, err error) {
	h.mu.Lock()
	h.val, h.err = v, err
	h.done.Store(true)
	h.mu.Unlock()
	h.cond.Broadcast()
	h.span.End() // nil-safe: ends the request root at completion time
}

// Fetch blocks until the request completes and returns its result. It may be
// called multiple times; subsequent calls return immediately.
func (h *Handle) Fetch() (any, error) {
	if h.done.Load() {
		return h.val, h.err
	}
	h.mu.Lock()
	for !h.done.Load() {
		h.cond.Wait()
	}
	h.mu.Unlock()
	return h.val, h.err
}

// Done reports (without blocking) whether the result is available — the
// polling side of the observer model.
func (h *Handle) Done() bool { return h.done.Load() }

// job is the one queue entry: a call and the handles its reply completes,
// one per binding. A pooled job keeps the storage of hs from one use to the
// next — it starts as the inline one, which is all a single submission needs
// — so neither shape allocates per job.
type job struct {
	call query.Call
	rep  query.Reply // in the job, not the worker's frame: Call.On makes it escape
	hs   []*Handle
	one  [1]*Handle
	own  Owner
	// queue, when tracing is on, measures time spent waiting in the ring
	// (opened at enqueue, ended when a worker pops the job).
	queue *obs.Span
}

// jobRing is a growable FIFO ring buffer. Capacity is kept a power of two so
// indexing is a mask; pushes grow by doubling, so steady-state submission
// does no queue allocation at all.
type jobRing struct {
	buf  []*job
	head int
	n    int
}

func (q *jobRing) empty() bool { return q.n == 0 }

func (q *jobRing) push(j *job) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = j
	q.n++
}

func (q *jobRing) pop() *job {
	j := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return j
}

func (q *jobRing) grow() {
	newCap := 64
	if len(q.buf) > 0 {
		newCap = len(q.buf) * 2
	}
	nb := make([]*job, newCap)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = nb, 0
}

// Executor is a fixed-size worker pool with an unbounded FIFO submission
// queue, so that submit loops never block regardless of the number of
// iterations (memory for pending state is the documented cost, §VII). With
// no workers it is synchronous: the submitting goroutine executes its own
// job before Enqueue returns, modelling an untransformed program's
// environment.
type Executor struct {
	backend runners
	workers int

	mu     sync.Mutex
	cond   sync.Cond
	queue  jobRing
	closed bool
	wg     sync.WaitGroup
	jobs   sync.Pool

	submitted atomic.Int64
	completed atomic.Int64 // bumped before the handle resolves: a caller that fetched every handle reads them all here
	batches   atomic.Int64 // batch calls issued
	batched   atomic.Int64 // individual requests carried by batch calls
}

// NewExecutor starts a pool of the given size. workers is the paper's
// "number of threads" experimental parameter; below 1 the pool is
// synchronous. runBatch executes batch calls and may be nil for a pool that
// is only ever handed single ones.
func NewExecutor(workers int, run Runner, runBatch BatchRunner) *Executor {
	if workers < 0 {
		workers = 0
	}
	e := &Executor{backend: runners{run, runBatch}, workers: workers}
	e.cond.L = &e.mu
	e.jobs.New = func() any {
		j := new(job)
		j.hs = j.one[:0]
		return j
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Submit enqueues a single request (implementing Front).
func (e *Executor) Submit(req query.Request, h *Handle) error {
	return e.Enqueue(&query.Call{Request: req}, nil, h)
}

// Enqueue queues one call of either shape with the handles its reply will
// complete, one per binding in binding order; own, when not nil, is told
// when the backend has answered. c.Span is the span of the handle that leads
// the call: the queue wait and the backend's subtree hang off it. A closed
// pool refuses with ErrClosed and fails every handle with it, so a Fetch on
// a handle already handed out never blocks. The submitted counter is
// incremented inside the queue critical section, before any worker can see
// the job, so Stats never observes completed > submitted. Enqueue never
// blocks on a pool with workers; without any it runs the call inline.
func (e *Executor) Enqueue(c *query.Call, own Owner, hs ...*Handle) error {
	j := e.jobs.Get().(*job)
	j.call, j.own = *c, own
	j.hs = append(j.hs, hs...)
	if e.workers > 0 { // a synchronous pool has no queue to wait in
		j.queue = c.Span.Child("exec.queue")
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		j.queue.End()
		e.release(j)
		for _, h := range hs {
			h.complete(nil, ErrClosed)
		}
		return ErrClosed
	}
	e.submitted.Add(int64(len(hs)))
	if e.workers == 0 {
		e.wg.Add(1) // Close waits for this inline run as it does for a worker
		e.mu.Unlock()
		e.execute(j)
		e.wg.Done()
		return nil
	}
	e.queue.push(j)
	e.mu.Unlock()
	e.cond.Signal()
	return nil
}

// release returns a job to the pool holding no reference but its storage.
func (e *Executor) release(j *job) {
	clear(j.hs)
	*j = job{hs: j.hs[:0]}
	e.jobs.Put(j)
}

// Stats returns the total submitted and completed request counts. The
// completed counter is loaded first: both are monotonic, so this order
// guarantees completed <= submitted in every observation.
func (e *Executor) Stats() (submitted, completed int64) {
	c := e.completed.Load()
	s := e.submitted.Load()
	return s, c
}

// BatchStats reports the batching activity: how many batch calls were issued
// and the mean number of requests per batch (0 when no batch was issued).
func (e *Executor) BatchStats() (batchesIssued int64, avgBatchSize float64) {
	b := e.batches.Load()
	n := e.batched.Load()
	if b == 0 {
		return 0, 0
	}
	return b, float64(n) / float64(b)
}

// Close drains the queue: pending requests still execute, then workers exit.
// It blocks until all workers have stopped.
func (e *Executor) Close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}

func (e *Executor) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for e.queue.empty() && !e.closed {
			e.cond.Wait()
		}
		if e.queue.empty() {
			e.mu.Unlock()
			return
		}
		j := e.queue.pop()
		e.mu.Unlock()
		e.execute(j)
	}
}

// execute runs one job: the call goes to the backend in its own shape and
// the reply is demultiplexed onto the handles. When tracing is on, the
// execution subtree parents under the leader's span (every span gets exactly
// one parent) and every other traced handle gets a leaf "batch.exec" child
// covering the shared execution window.
func (e *Executor) execute(j *job) {
	j.queue.End() // queue wait is over; execution starts
	c, hs := &j.call, j.hs
	if c.Batch() {
		e.batches.Add(1)
		e.batched.Add(int64(len(hs)))
	}
	var members []*obs.Span
	for _, h := range hs {
		if h.span != nil && h.span != c.Span {
			if members == nil {
				members = make([]*obs.Span, 0, len(hs)-1)
			}
			members = append(members, h.span.Child("batch.exec"))
		}
	}
	rep := &j.rep
	c.On(&e.backend, rep)
	for _, m := range members {
		m.End()
	}
	if j.own != nil {
		j.own.Returned()
	}
	vals, errs := rep.Values, rep.Errs
	if !c.Batch() {
		vals, errs = []any{rep.Value}, []error{rep.Err}
	}
	for k, h := range hs {
		var v any
		var err error
		if k < len(vals) {
			v = vals[k]
		}
		if k < len(errs) {
			err = errs[k]
		}
		if err == nil && k >= len(vals) {
			// The runner is caller-supplied: a short reply fails the
			// bindings it left out instead of completing them with nil.
			err = errors.New("exec: batch runner returned too few results")
		}
		e.completed.Add(1)
		h.complete(v, err)
	}
	e.release(j)
}
