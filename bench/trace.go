package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/interp"
	"repro/internal/net"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Tracing lives in the benchmark's own files: pass-through shims around
// the calls into each layer, at every seam the public API offers. A traced
// pass runs one client at depth one, so the spans of one request nest by
// time containment and no identifier has to cross the wire.
//
// Span levels, outermost first. A span's parent is the span one level up
// that contains it in time; a span nothing contains is a root.
var spanLevels = []string{"interp", "svc", "client", "door", "group", "wal"}

func levelOf(name string) int {
	for i, p := range spanLevels {
		if strings.HasPrefix(name, p+".") {
			return i
		}
	}
	return len(spanLevels)
}

// span is one timed call into a layer. Start/End are nanoseconds since the
// tracer's epoch; Parent indexes the trace's span list, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// wire accumulates sampled frame sizes (request + response) for
	// net.bytes_per_op; see clientShim.
	wireBytes, wireOps int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(name string, start time.Time) {
	end := time.Since(t.epoch)
	s := span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end), Parent: -1}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops what the warm-up recorded.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.wireBytes, t.wireOps = nil, 0, 0
	t.mu.Unlock()
}

// kind names a statement by what the layers do with it.
func kind(sql string) string {
	if strings.HasPrefix(sql, "insert") {
		return "insert"
	}
	return "read"
}

// ---- client side: around net.Client ----

// wireSampleEvery is how often the client shim re-encodes a call to count
// its bytes on the wire. The sizes are a pure function of the request and
// result, so a sample measures them exactly; it is taken after the span
// closed, so it costs the spans nothing.
const wireSampleEvery = 16

type clientShim struct {
	t     *tracer
	next  query.Executor
	calls uint64
}

func (t *tracer) wrapClient(c query.Executor) query.Executor { return &clientShim{t: t, next: c} }

const frameHeader = 5 // u32 length + type byte, see net.WriteFrame

func (c *clientShim) Exec(req query.Request) query.Result {
	t0 := time.Now()
	res := c.next.Exec(req)
	c.t.record("client."+kind(req.SQL), t0)
	if c.calls++; c.calls%wireSampleEvery == 0 {
		out, _ := net.EncodeExec(c.calls, req)
		in, _ := net.EncodeResult(c.calls, res)
		c.t.addWire(len(out)+len(in)+2*frameHeader, 1)
	}
	return res
}

func (c *clientShim) ExecBatch(req query.BatchRequest) query.BatchResult {
	t0 := time.Now()
	res := c.next.ExecBatch(req)
	c.t.record("client."+kind(req.SQL), t0)
	if c.calls++; c.calls%wireSampleEvery == 0 {
		out, _ := net.EncodeExecBatch(c.calls, req)
		in, _ := net.EncodeBatchResult(c.calls, res)
		c.t.addWire(len(out)+len(in)+2*frameHeader, len(req.ArgSets))
	}
	return res
}

func (t *tracer) addWire(bytes, ops int) {
	t.mu.Lock()
	t.wireBytes += int64(bytes)
	t.wireOps += int64(ops)
	t.mu.Unlock()
}

// ---- between the front door and the router ----

type doorShim struct {
	t    *tracer
	next query.Executor
}

func (t *tracer) wrapDoor(r query.Executor) query.Executor { return &doorShim{t: t, next: r} }

func (d *doorShim) Exec(req query.Request) query.Result {
	t0 := time.Now()
	res := d.next.Exec(req)
	d.t.record("door."+kind(req.SQL), t0)
	return res
}

func (d *doorShim) ExecBatch(req query.BatchRequest) query.BatchResult {
	t0 := time.Now()
	res := d.next.ExecBatch(req)
	d.t.record("door."+kind(req.SQL), t0)
	return res
}

// ---- between the router and each shard's replica group ----

// groupShim embeds the backend and overrides only the two execution calls.
// The router type-asserts *replica.Group only in Groups() and migration
// checkpointing, neither of which a workload reaches.
type groupShim struct {
	shard.Backend
	t *tracer
}

func (t *tracer) wrapBackend(b shard.Backend) shard.Backend { return &groupShim{Backend: b, t: t} }

func (g *groupShim) Exec(req query.Request) query.Result {
	t0 := time.Now()
	res := g.Backend.Exec(req)
	g.t.record("group."+kind(req.SQL), t0)
	return res
}

func (g *groupShim) ExecBatch(req query.BatchRequest) query.BatchResult {
	t0 := time.Now()
	res := g.Backend.ExecBatch(req)
	g.t.record("group."+kind(req.SQL), t0)
	return res
}

// ---- under the WAL: the store the flusher writes and syncs ----

type storeShim struct {
	wal.Store
	t *tracer
}

func (t *tracer) wrapStore(s wal.Store) wal.Store { return &storeShim{Store: s, t: t} }

func (s *storeShim) AppendRecords(recs []wal.Record) (int, error) {
	t0 := time.Now()
	n, err := s.Store.AppendRecords(recs)
	s.t.record("wal.append", t0)
	return n, err
}

func (s *storeShim) Sync() error {
	t0 := time.Now()
	err := s.Store.Sync()
	s.t.record("wal.sync", t0)
	return err
}

// ---- client runtime: the interpreter's query service and its handles ----

type serviceShim struct {
	t    *tracer
	next interp.QueryService
}

func (t *tracer) wrapService(s interp.QueryService) interp.QueryService {
	return &serviceShim{t: t, next: s}
}

func (s *serviceShim) Exec(name, sql string, args []interp.Value) (interp.Value, error) {
	t0 := time.Now()
	v, err := s.next.Exec(name, sql, args)
	s.t.record("svc.exec", t0)
	return v, err
}

func (s *serviceShim) Submit(name, sql string, args []interp.Value) (interp.Handle, error) {
	t0 := time.Now()
	h, err := s.next.Submit(name, sql, args)
	s.t.record("svc.submit", t0)
	if err != nil {
		return nil, err
	}
	return &handleShim{t: s.t, next: h}, nil
}

type handleShim struct {
	t    *tracer
	next interp.Handle
}

func (h *handleShim) Fetch() (interp.Value, error) {
	t0 := time.Now()
	v, err := h.next.Fetch()
	h.t.record("svc.fetch", t0)
	return v, err
}

// ---- turning the flat span list into a tree and into layer numbers ----

// link sorts the spans by start time and resolves every parent: the span
// one level up, latest started, whose interval contains this one.
func link(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return levelOf(spans[i].Name) < levelOf(spans[j].Name)
	})
	open := make([][]int, len(spanLevels)+1) // per level: spans that may still contain later ones
	for i := range spans {
		s := &spans[i]
		lv := levelOf(s.Name)
		if lv > 0 {
			cands := open[lv-1]
			live := cands[:0]
			for _, p := range cands {
				if spans[p].End >= s.Start { // later spans start later still
					live = append(live, p)
				}
			}
			open[lv-1] = live
			for k := len(live) - 1; k >= 0; k-- {
				if spans[live[k]].End >= s.End {
					s.Parent = live[k]
					break
				}
			}
		}
		open[lv] = append(open[lv], i)
	}
}

// layerSums is the aggregate a traced pass reduces to: per span name, how
// many there were, their total duration and their total self time.
type layerSum struct {
	n         int64
	dur, self int64
}

func summarize(spans []span) map[string]*layerSum {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	sums := map[string]*layerSum{}
	for i, s := range spans {
		ls := sums[s.Name]
		if ls == nil {
			ls = &layerSum{}
			sums[s.Name] = ls
		}
		ls.n++
		ls.dur += s.End - s.Start
		ls.self += selfTime(interval{s.Start, s.End}, children[i])
	}
	return sums
}

// writeTrace dumps the linked spans under bench/out/.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
