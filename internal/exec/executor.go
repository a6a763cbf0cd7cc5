// Package exec is the asynchronous client runtime: a fixed-size worker pool
// that plays the role of java.util.concurrent's Executor framework in the
// paper's rewritten programs (§VI). Submitted queries are queued and executed
// by the pool; Fetch blocks on the per-query handle (the observer model of
// §II).
//
// The hot path is allocation-lean: one allocation per Submit (the Handle the
// caller keeps). Job structs are pooled, the FIFO queue is a growable ring
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
// request carries everything the backend needs — trace span, session
// consistency tokens, and deadline — so there is exactly one runner shape
// per layer.
type Runner func(req query.Request) query.Result

// BatchRunner executes one prepared statement against a set of parameter
// bindings in a single server round trip (the set-oriented sibling of Runner;
// see internal/batch and server.ExecBatch). It returns one result and one
// error per binding, in binding order.
type BatchRunner func(req query.BatchRequest) query.BatchResult

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
	// dl is the request deadline: workers abandon jobs whose deadline
	// expired while queued instead of running them.
	dl query.Deadline
}

func newHandle() *Handle {
	h := &Handle{}
	h.cond.L = &h.mu
	return h
}

// NewPendingHandle returns an incomplete handle for front-ends (the batching
// coalescer) that hand out handles at enqueue time and complete them later
// via Complete. sp is the request's root span (nil when untraced) —
// completing the handle ends it; dl is the request deadline (zero for none).
func NewPendingHandle(sp *obs.Span, dl query.Deadline) *Handle {
	h := newHandle()
	h.span = sp
	h.dl = dl
	return h
}

// Complete publishes the result and wakes all fetchers. It is exported for
// demultiplexing layers that own pending handles (see NewPendingHandle); it
// must be called at most once per handle.
func (h *Handle) Complete(v any, err error) { h.complete(v, err) }

// newDoneHandle returns an already-completed handle (used by the degraded
// poolless service mode).
func newDoneHandle(v any, err error) *Handle {
	h := newHandle()
	h.complete(v, err)
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

type job struct {
	req query.Request
	h   *Handle
	// Batch jobs carry a BatchRequest and one pending handle per binding
	// set instead of req/h; hs non-nil marks the job as a batch.
	breq query.BatchRequest
	hs   []*Handle
	// queue, when tracing is on, measures time spent waiting in the ring
	// (opened at enqueue, ended when a worker pops the job). For batch
	// jobs it hangs off the batch leader's span.
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
// iterations (memory for pending state is the documented cost, §VII).
type Executor struct {
	run      Runner
	runBatch BatchRunner // optional set-oriented path for batch jobs

	mu     sync.Mutex
	cond   sync.Cond
	queue  jobRing
	closed bool
	wg     sync.WaitGroup
	jobs   sync.Pool

	submitted atomic.Int64
	completed atomic.Int64 // bumped before the handle resolves: a caller that fetched every handle reads them all here
	batches   atomic.Int64 // batch jobs issued
	batched   atomic.Int64 // individual requests carried by batch jobs
}

// NewExecutor starts a pool of the given size. workers is the paper's
// "number of threads" experimental parameter.
func NewExecutor(workers int, run Runner) *Executor {
	return NewBatchExecutor(workers, run, nil)
}

// NewBatchExecutor starts a pool whose batch jobs (SubmitBatch) execute
// through runBatch in a single call. A nil runBatch degrades batch jobs to
// per-binding run calls on the worker, preserving semantics without the
// set-oriented saving.
func NewBatchExecutor(workers int, run Runner, runBatch BatchRunner) *Executor {
	if workers < 1 {
		workers = 1
	}
	e := &Executor{run: run, runBatch: runBatch}
	e.cond.L = &e.mu
	e.jobs.New = func() any { return new(job) }
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Submit enqueues a request and returns its handle immediately. The handle
// adopts the request's span (completion ends it) and deadline (a worker that
// pops the job past its deadline abandons it with ErrDeadlineExceeded
// instead of executing). The submitted counter is incremented inside the
// queue critical section, before any worker can see the job, so Stats never
// observes completed > submitted.
func (e *Executor) Submit(req query.Request) (*Handle, error) {
	h := newHandle()
	h.span = req.Span
	h.dl = req.Deadline
	j := e.jobs.Get().(*job)
	j.req, j.h = req, h
	j.queue = req.Span.Child("exec.queue")
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		j.queue.End()
		*j = job{}
		e.jobs.Put(j)
		return nil, ErrClosed
	}
	e.queue.push(j)
	e.submitted.Add(1)
	e.mu.Unlock()
	e.cond.Signal()
	return h, nil
}

// SubmitBatch enqueues one batch job covering len(req.ArgSets) requests. The
// handles must have been created with NewPendingHandle, one per binding set;
// a worker completes each of them after the set-oriented call. On ErrClosed
// the handles are NOT completed — the caller owns failing them.
func (e *Executor) SubmitBatch(req query.BatchRequest, hs []*Handle) error {
	if len(req.ArgSets) != len(hs) {
		return errors.New("exec: SubmitBatch: len(argSets) != len(handles)")
	}
	if len(hs) == 0 {
		return nil
	}
	j := e.jobs.Get().(*job)
	j.breq, j.hs = req, hs
	// The batch leader (first traced member) owns the queue-wait span,
	// like it will own the execution subtree.
	for _, h := range hs {
		if h.span != nil {
			j.queue = h.span.Child("exec.queue")
			break
		}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		j.queue.End()
		*j = job{}
		e.jobs.Put(j)
		return ErrClosed
	}
	e.queue.push(j)
	e.submitted.Add(int64(len(hs)))
	e.mu.Unlock()
	e.cond.Signal()
	return nil
}

// Stats returns the total submitted and completed request counts. The
// completed counter is loaded first: both are monotonic, so this order
// guarantees completed <= submitted in every observation.
func (e *Executor) Stats() (submitted, completed int64) {
	c := e.completed.Load()
	s := e.submitted.Load()
	return s, c
}

// BatchStats reports the batching activity: how many batch jobs were issued
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
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
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
		j.queue.End() // queue wait is over; execution starts

		if j.hs != nil {
			e.runBatchJob(j)
			continue
		}
		req, h := j.req, j.h
		*j = job{} // drop references before pooling
		e.jobs.Put(j)
		if req.Deadline.Expired() {
			// The request aged out in the queue: abandon it rather than
			// spend backend work on an answer nobody is waiting for.
			e.completed.Add(1)
			h.complete(nil, query.ErrDeadlineExceeded)
			continue
		}
		res := e.run(req)
		e.completed.Add(1)
		h.complete(res.Value, res.Err)
	}
}

// runBatchJob executes one batch job and demultiplexes the per-binding
// results onto the pending handles. Members whose deadline expired in the
// queue are abandoned up front (completed with ErrDeadlineExceeded) and the
// set-oriented call covers only the survivors. When tracing is on, the first
// traced surviving member is the batch leader: the execution subtree parents
// under its span (every span gets exactly one parent), and every other
// traced member gets a leaf "batch.exec" child covering the shared execution
// window.
func (e *Executor) runBatchJob(j *job) {
	req, hs := j.breq, j.hs
	*j = job{}
	e.jobs.Put(j)

	// Partition out members that aged past their deadline in the queue.
	live := make([]int, 0, len(hs))
	for i, h := range hs {
		if h.dl.Expired() {
			e.completed.Add(1)
			h.complete(nil, query.ErrDeadlineExceeded)
			continue
		}
		live = append(live, i)
	}
	if len(live) == 0 {
		return
	}
	if len(live) < len(hs) {
		sub := make([][]any, len(live))
		for k, i := range live {
			sub[k] = req.ArgSets[i]
		}
		req.ArgSets = sub
	}

	e.batches.Add(1)
	e.batched.Add(int64(len(live)))
	var leader *obs.Span
	var members []*obs.Span
	for _, i := range live {
		h := hs[i]
		if h.span == nil {
			continue
		}
		if leader == nil {
			leader = h.span
			continue
		}
		if members == nil {
			members = make([]*obs.Span, 0, len(live)-1)
		}
		members = append(members, h.span.Child("batch.exec"))
	}
	defer func() {
		for _, m := range members {
			m.End()
		}
	}()
	if e.runBatch == nil {
		// No set-oriented path configured: preserve semantics by running the
		// bindings one by one on this worker.
		for k, i := range live {
			r := query.Req(req.Name, req.SQL, req.ArgSets[k]).
				WithSpan(hs[i].span).WithSession(req.Session).WithDeadline(hs[i].dl)
			r.Consistency = req.Consistency
			res := e.run(r)
			e.completed.Add(1)
			hs[i].complete(res.Value, res.Err)
		}
		return
	}
	req.Span = leader
	br := e.runBatch(req)
	for k, i := range live {
		var v any
		var err error
		if k < len(br.Values) {
			v = br.Values[k]
		}
		if k < len(br.Errs) {
			err = br.Errs[k]
		}
		if err == nil && k >= len(br.Values) {
			err = errors.New("exec: batch runner returned too few results")
		}
		e.completed.Add(1)
		hs[i].complete(v, err)
	}
}
