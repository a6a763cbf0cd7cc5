// Package batch implements batched query submission: a coalescing layer in
// front of the asynchronous executor that groups submissions sharing the
// same prepared statement into one set-oriented batch call, amortizing the
// per-request network round trip and planning cost (the batching sibling of
// asynchronous submission in Chavan et al., ICDE 2011; see README.md for
// the batch lifecycle).
//
// Transformed programs need no changes: Submit hands back a pending handle
// immediately, exactly like the per-query path, and the pool demultiplexes
// the batch reply onto those handles when the batch completes.
package batch

import (
	"sync"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/query"
)

// DefaultMaxBatch bounds how many requests one batch carries when
// Options.MaxBatch is zero.
const DefaultMaxBatch = 16

// Options configure the coalescer.
type Options struct {
	// MaxBatch is the maximum number of requests per batch (0 = default;
	// any other value below 2 means one request per call, so NewService
	// builds no coalescer at all).
	MaxBatch int
	// GroupFn, when set, refines the coalescing key: requests batch together
	// only when they share (name, sql) AND the returned group id. A sharded
	// backend (internal/shard) supplies its partition function here so each
	// batch targets a single shard and never has to be split downstream —
	// the sharded run then pays exactly as many round trips as a
	// single-server run, just spread over parallel backends. Replicated
	// backends (internal/replica) compose transparently: a whole read batch
	// rides one round trip to one replica of its shard's group, so round
	// trips still match the single server while successive batches spread
	// over the replicas (pinned by TestReplicatedBackendRoundTripsMatchSingleServer).
	GroupFn func(name, sql string, args []any) int
}

// key identifies a coalescing lane: submissions batch together only when
// they share the same prepared statement (and, with Options.GroupFn, the
// same group id — e.g. the same target shard).
type key struct {
	name, sql string
	group     int
}

// lane is one key's state: the batch filling now and how many of the key's
// batches the pool holds unanswered. It is the owner of every batch it
// sends, so the answer comes back to the lane that sent it even if GroupFn
// would now put the same requests elsewhere.
type lane struct {
	c        *coalescer
	key      key
	inflight int
	argSets  [][]any
	handles  []*exec.Handle
	// leader is the span of the first traced member: the batch call carries
	// it to the pool and the backend, so the shared execution has one parent.
	leader *obs.Span
	// waits holds the traced members' "batch.wait" spans; send ends them —
	// their wall time is the wait for the lane's batch in flight, the price
	// a request pays to share the round trip.
	waits []*obs.Span
}

// coalescer groups submissions into batch calls on a pool with at least one
// worker. It is safe for concurrent use. A lane's filling batch leaves when
// it is full or when none of the lane's batches is in flight, so the first
// submission never waits and later ones gather for one round trip.
type coalescer struct {
	pool *exec.Executor
	opts Options

	mu     sync.Mutex
	lanes  map[key]*lane
	closed bool
}

// Submit adds one request to the filling batch of its lane (implementing
// exec.Front) and sends the batch if it is full or nothing of the lane's is
// in flight. A traced request gets a "batch.wait" child covering the time
// between submission and dispatch.
func (c *coalescer) Submit(req query.Request, h *exec.Handle) error {
	k := key{name: req.Name, sql: req.SQL}
	if c.opts.GroupFn != nil {
		k.group = c.opts.GroupFn(req.Name, req.SQL, req.Args)
	}
	wait := req.Span.Child("batch.wait") // nil-safe: nil for untraced requests
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		wait.End()
		return exec.ErrClosed
	}
	l := c.lanes[k]
	if l == nil {
		l = &lane{c: c, key: k}
		c.lanes[k] = l
	}
	l.argSets = append(l.argSets, req.Args)
	l.handles = append(l.handles, h)
	if l.leader == nil {
		l.leader = req.Span
	}
	if wait != nil {
		if l.waits == nil {
			l.waits = make([]*obs.Span, 0, c.opts.MaxBatch)
		}
		l.waits = append(l.waits, wait)
	}
	if l.inflight == 0 || len(l.handles) >= c.opts.MaxBatch {
		l.send()
	}
	return nil
}

// send hands the lane's filling batch to the pool as one batch call. The
// caller holds c.mu: Enqueue does not block on a pool with workers, and the
// answer's Returned waits for the lock, so it cannot overtake the count.
func (l *lane) send() {
	for _, w := range l.waits {
		w.End() // coalescing is over; the batch heads for the pool
	}
	call := query.BatchCall(query.BatchRequest{Name: l.key.name, SQL: l.key.sql, ArgSets: l.argSets, Span: l.leader})
	// A pool that refuses the call has failed every handle with the reason
	// and will never answer it, so it is not counted.
	if l.c.pool.Enqueue(&call, l, l.handles...) == nil {
		l.inflight++
	}
	// The argument sets now belong to the call; the job copied the handles,
	// so their storage, like the ended spans', is kept for the next batch.
	clear(l.handles)
	clear(l.waits)
	l.argSets, l.handles, l.leader, l.waits = nil, l.handles[:0], nil, l.waits[:0]
}

// Returned implements exec.Owner: one of the lane's batches was answered.
// When it was the last in flight, what filled meanwhile leaves now, and a
// lane with nothing filling and nothing in flight is dropped.
func (l *lane) Returned() {
	c := l.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if l.inflight--; l.inflight > 0 {
		return
	}
	if len(l.handles) > 0 {
		l.send()
	} else {
		delete(c.lanes, l.key)
	}
}

// Close rejects further submissions and sends every filling batch. Nothing
// is left to wait for: every batch is on the pool when Close returns, so the
// owner may close the pool next and still drain them all.
func (c *coalescer) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, l := range c.lanes {
		if len(l.handles) > 0 {
			l.send()
		}
	}
}

// NewService builds a batching query service: an exec.Service whose pool
// executes set-oriented batch calls through runBatch and whose submissions
// enter through a coalescer. Whether there is a coalescer is decided here,
// once: a synchronous service (workers == 0), a backend with no set-oriented
// path (nil runBatch) and one request per batch (MaxBatch below 2) each
// leave nothing to coalesce, and the service is exactly exec.NewService.
func NewService(workers int, run exec.Runner, runBatch exec.BatchRunner, opts Options) *exec.Service {
	if opts.MaxBatch == 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if workers < 1 || runBatch == nil || opts.MaxBatch < 2 {
		return exec.NewService(workers, run)
	}
	pool := exec.NewExecutor(workers, run, runBatch)
	return exec.NewServiceOn(pool, &coalescer{pool: pool, opts: opts, lanes: map[key]*lane{}})
}
