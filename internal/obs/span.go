package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed region of a request: queue wait, batch wait, a
// per-shard scatter leg, a WAL commit wait. Spans form a tree rooted at
// the request span and record two clocks:
//
//   - wall: real elapsed time between Start and End (includes the
//     harness's latency scale factor);
//   - sim: the simulated-latency charge explicitly attributed to the span
//     via Charge (RTT, CPU hold, fsync settle) — the model time the
//     figures are built on, independent of scale.
//
// All methods are safe on a nil *Span and do nothing, so instrumented
// code never branches on "is tracing on": an untraced request threads nil
// spans end to end at the cost of a few predictable nil checks.
type Span struct {
	tracer *Tracer
	parent *Span
	name   string
	start  time.Time
	wall   time.Duration
	sim    atomic.Int64 // nanoseconds of simulated charge
	ended  atomic.Bool

	mu       sync.Mutex
	detail   string
	children []*Span
}

// Child opens a sub-span. Safe (and a no-op returning nil) on nil.
// Children may be opened concurrently — scatter fan-out does.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.tracer.newSpan(name)
	c.parent = s
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Charge attributes simulated-model latency to the span.
func (s *Span) Charge(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.sim.Add(int64(d))
}

// SetDetail attaches a free-form annotation (SQL text, shard id, replica
// label) rendered in the slow-query log.
func (s *Span) SetDetail(d string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.detail = d
	s.mu.Unlock()
}

// End closes the span, records its durations in the tracer's registry,
// and — for a root span — runs slow-query rendering and the collector
// hook. End is idempotent; only the first call counts.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.wall = time.Since(s.start)
	t := s.tracer
	t.ended.Add(1)
	t.histFor(&t.wallHists, s.name, ".wall").RecordDuration(s.wall)
	if sim := s.sim.Load(); sim > 0 {
		t.histFor(&t.simHists, s.name, ".sim").Record(sim)
	}
	if s.parent == nil {
		t.rootEnded(s)
	}
}

// Ended reports whether End has been called (true for a nil span: a span
// that never existed has nothing left open).
func (s *Span) Ended() bool {
	if s == nil {
		return true
	}
	return s.ended.Load()
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Sim returns the simulated charge attributed directly to this span.
func (s *Span) Sim() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.sim.Load())
}

// Children returns the child spans (valid after End; callers must not
// mutate).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.children
}

// SimTotal returns the simulated charge of the span plus all descendants.
func (s *Span) SimTotal() time.Duration {
	if s == nil {
		return 0
	}
	total := time.Duration(s.sim.Load())
	for _, c := range s.Children() {
		total += c.SimTotal()
	}
	return total
}

// Tracer mints spans and owns the slow-query log. A nil *Tracer is valid
// and mints nil spans, so "tracing off" costs one nil check at the root.
type Tracer struct {
	reg     *Registry
	started atomic.Int64
	ended   atomic.Int64

	slowNS atomic.Int64

	mu       sync.Mutex
	slowSink io.Writer
	collect  func(root *Span)

	// Per-span-name histogram caches: span names are compile-time
	// constants, so End reaches its histograms via one lock-free map hit
	// instead of allocating a concatenated metric name per request.
	wallHists sync.Map // string -> *Histogram
	simHists  sync.Map
}

// NewTracer returns a tracer recording span durations into reg.
func NewTracer(reg *Registry) *Tracer {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Tracer{reg: reg}
}

// SetSlowLog enables slow-query logging: any root span whose wall time
// reaches thresh has its tree rendered to sink. thresh <= 0 disables.
func (t *Tracer) SetSlowLog(thresh time.Duration, sink io.Writer) {
	t.mu.Lock()
	t.slowSink = sink
	t.slowNS.Store(int64(thresh))
	t.mu.Unlock()
}

// SetCollector installs a hook invoked with every completed root span
// (used by trace-completeness tests to retain whole trees).
func (t *Tracer) SetCollector(fn func(root *Span)) {
	t.mu.Lock()
	t.collect = fn
	t.mu.Unlock()
}

// Start opens a root span. Safe on a nil tracer (returns a nil span).
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name)
}

func (t *Tracer) newSpan(name string) *Span {
	t.started.Add(1)
	return &Span{tracer: t, name: name, start: time.Now()}
}

// Started returns the number of spans opened so far.
func (t *Tracer) Started() int64 {
	if t == nil {
		return 0
	}
	return t.started.Load()
}

// Ended returns the number of spans closed so far.
func (t *Tracer) Ended() int64 {
	if t == nil {
		return 0
	}
	return t.ended.Load()
}

// Open returns the number of spans opened but not yet closed.
func (t *Tracer) Open() int64 {
	if t == nil {
		return 0
	}
	return t.started.Load() - t.ended.Load()
}

func (t *Tracer) histFor(cache *sync.Map, name, suffix string) *Histogram {
	if v, ok := cache.Load(name); ok {
		return v.(*Histogram)
	}
	h := t.reg.Histogram("span." + name + suffix)
	v, _ := cache.LoadOrStore(name, h)
	return v.(*Histogram)
}

func (t *Tracer) rootEnded(root *Span) {
	if thresh := t.slowNS.Load(); thresh > 0 && int64(root.wall) >= thresh {
		t.mu.Lock()
		sink := t.slowSink
		t.mu.Unlock()
		if sink != nil {
			var b strings.Builder
			fmt.Fprintf(&b, "slow query: wall=%v sim=%v\n",
				root.wall.Round(time.Microsecond), root.SimTotal().Round(time.Microsecond))
			renderSpan(&b, root, 1)
			t.mu.Lock()
			io.WriteString(sink, b.String())
			t.mu.Unlock()
		}
	}
	t.mu.Lock()
	collect := t.collect
	t.mu.Unlock()
	if collect != nil {
		collect(root)
	}
}

func renderSpan(b *strings.Builder, s *Span, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s wall=%v", s.name, s.wall.Round(time.Microsecond))
	if sim := s.Sim(); sim > 0 {
		fmt.Fprintf(b, " sim=%v", sim.Round(time.Microsecond))
	}
	s.mu.Lock()
	detail := s.detail
	children := s.children
	s.mu.Unlock()
	if detail != "" {
		fmt.Fprintf(b, " [%s]", detail)
	}
	b.WriteByte('\n')
	for _, c := range children {
		renderSpan(b, c, depth+1)
	}
}

// shardLabels caches small "shard N" detail strings so scatter fan-out
// does not pay a fmt allocation per leg.
var shardLabels = func() []string {
	ls := make([]string, 64)
	for i := range ls {
		ls[i] = fmt.Sprintf("shard %d", i)
	}
	return ls
}()

// ShardLabel returns a cached "shard N" annotation string.
func ShardLabel(i int) string {
	if i >= 0 && i < len(shardLabels) {
		return shardLabels[i]
	}
	return fmt.Sprintf("shard %d", i)
}

var replicaLabels = func() []string {
	ls := make([]string, 16)
	for i := range ls {
		ls[i] = fmt.Sprintf("replica %d", i)
	}
	return ls
}()

// ReplicaLabel returns a cached "replica N" annotation string.
func ReplicaLabel(i int) string {
	if i >= 0 && i < len(replicaLabels) {
		return replicaLabels[i]
	}
	return fmt.Sprintf("replica %d", i)
}
