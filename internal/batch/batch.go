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
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/query"
)

// Defaults for Options fields left zero.
const (
	// DefaultMaxBatch bounds how many requests one batch carries.
	DefaultMaxBatch = 16
	// DefaultLinger bounds how long a partial batch waits for company. It
	// must be positive whenever batching is on: a partial batch with no
	// linger deadline would strand its handles until Close.
	DefaultLinger = 200 * time.Microsecond
)

// Options configure the coalescer.
type Options struct {
	// MaxBatch is the maximum number of requests per batch (0 = default;
	// any other value below 2 means one request per call, so NewService
	// builds no coalescer at all).
	MaxBatch int
	// Linger is the maximum time a partial batch waits before flushing
	// (0 = default). Fetching a handle whose batch is still lingering
	// blocks at most this long plus the batch's execution time.
	Linger time.Duration
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

// key identifies a coalescing group: submissions batch together only when
// they share the same prepared statement (and, with Options.GroupFn, the
// same group id — e.g. the same target shard).
type key struct {
	name, sql string
	group     int
}

// group is one open (still filling) batch.
type group struct {
	key     key
	argSets [][]any
	handles []*exec.Handle
	timer   *time.Timer
	// leader is the span of the first traced member: the batch call carries
	// it to the pool and the backend, so the shared execution has one parent.
	leader *obs.Span
	// waits holds the traced members' "batch.wait" spans; dispatch ends them
	// — their wall time is fill + linger, the price a request pays to share
	// the round trip.
	waits []*obs.Span
}

// coalescer groups submissions into batch calls on a pool. It is safe for
// concurrent use.
type coalescer struct {
	pool *exec.Executor
	opts Options

	mu     sync.Mutex
	idle   sync.Cond // signalled when inflight drops to zero
	groups map[key]*group
	closed bool
	// inflight counts groups removed from the map but not yet handed to the
	// pool (incremented under mu, in the same critical section as the
	// removal), so Close can wait for them: otherwise a linger-timer flush
	// paused between removal and dispatch would be invisible to Close, and
	// the owner could close the pool under it.
	inflight int
}

// Submit adds one request to the open batch for its statement, creating one
// if needed (implementing exec.Front); the batch flushes when it reaches
// MaxBatch requests or its linger window expires, whichever comes first. A
// traced request gets a "batch.wait" child covering the time between
// submission and dispatch — batch fill plus linger, the coalescing cost the
// paper's batched submission trades for shared round trips.
func (c *coalescer) Submit(req query.Request, h *exec.Handle) error {
	k := key{name: req.Name, sql: req.SQL}
	if c.opts.GroupFn != nil {
		k.group = c.opts.GroupFn(req.Name, req.SQL, req.Args)
	}
	wait := req.Span.Child("batch.wait") // nil-safe: nil for untraced requests
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		wait.End()
		return exec.ErrClosed
	}
	g := c.groups[k]
	if g == nil {
		g = &group{key: k}
		c.groups[k] = g
		// The timer closure captures the group, not the key: if the group
		// was already flushed (full, or by Close) and a new one opened under
		// the same key, a stale firing must not steal it.
		g.timer = time.AfterFunc(c.opts.Linger, func() { c.flushGroup(g) })
	}
	g.argSets = append(g.argSets, req.Args)
	g.handles = append(g.handles, h)
	if g.leader == nil {
		g.leader = req.Span
	}
	if wait != nil {
		if g.waits == nil {
			g.waits = make([]*obs.Span, 0, c.opts.MaxBatch)
		}
		g.waits = append(g.waits, wait)
	}
	full := len(g.handles) >= c.opts.MaxBatch
	if full {
		delete(c.groups, k)
		g.timer.Stop()
		c.inflight++
	}
	c.mu.Unlock()
	if full {
		c.dispatch(g)
	}
	return nil
}

// flushGroup dispatches g if it is still the open group for its key.
func (c *coalescer) flushGroup(g *group) {
	c.mu.Lock()
	if c.groups[g.key] != g {
		c.mu.Unlock()
		return
	}
	delete(c.groups, g.key)
	c.inflight++
	c.mu.Unlock()
	c.dispatch(g)
}

// dispatch hands one closed batch (already counted in inflight) to the pool
// as a single batch call.
func (c *coalescer) dispatch(g *group) {
	for _, w := range g.waits {
		w.End() // coalescing is over; the batch heads for the pool
	}
	call := query.BatchCall(query.BatchRequest{Name: g.key.name, SQL: g.key.sql, ArgSets: g.argSets, Span: g.leader})
	// A pool that refuses the call has failed every handle with the reason,
	// which is all there is to do with it here.
	_ = c.pool.Enqueue(&call, g.handles...)
	c.mu.Lock()
	c.inflight--
	if c.inflight == 0 {
		c.idle.Broadcast()
	}
	c.mu.Unlock()
}

// Close rejects further submissions, dispatches every partial batch without
// waiting for its linger window, and returns only once every in-flight flush
// (including concurrent linger-timer flushes) has reached the pool — so the
// owner may close the pool next and still drain all batches.
func (c *coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	gs := make([]*group, 0, len(c.groups))
	for k, g := range c.groups {
		g.timer.Stop()
		c.inflight++
		gs = append(gs, g)
		delete(c.groups, k)
	}
	c.mu.Unlock()
	for _, g := range gs {
		c.dispatch(g)
	}
	c.mu.Lock()
	for c.inflight > 0 {
		c.idle.Wait()
	}
	c.mu.Unlock()
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
	if opts.Linger <= 0 {
		opts.Linger = DefaultLinger
	}
	pool := exec.NewExecutor(workers, run, runBatch)
	c := &coalescer{pool: pool, opts: opts, groups: map[key]*group{}}
	c.idle.L = &c.mu
	return exec.NewServiceOn(pool, c)
}
