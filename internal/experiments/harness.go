// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI): Figures 8–15 and Table I. Each figure function returns
// the measured series in the paper's coordinates; Render prints them as
// aligned text tables. Absolute times differ from the paper (the substrate
// is a simulator), but the shapes — who wins, crossover points, saturation
// behaviour — are the reproduction targets; PERF.md lists the command that
// regenerates each. Every program-driven figure is a sweep over the one
// measurement, Harness.Measure: a Config (workload, profile, cache, client and
// cluster shape) run once per requested submission Mode, the runs' results
// checked equal, one Run record each. The request-driven figures (durability,
// tail latency, front door, chaos, reshard) sweep the other one, net.RunLoad:
// closed- or open-loop workers over connections or over executors the figure
// holds, every request accounted for in a LoadReport.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
)

// Harness runs measurements, caching loaded servers and shard routers per
// (app, profile[, shards]).
type Harness struct {
	// Scale is the wall-clock scale factor for simulated latencies. Set it
	// before the first measurement: cached servers and routers keep the
	// scale they were built with.
	Scale float64
	// Quick shrinks the sweeps (cmd/experiments -quick, CI's figure gate);
	// the full sweeps match the paper's axes.
	Quick bool
	// Seed offsets the per-run workload argument generator (cmd/experiments
	// -seed / ASYNCQ_SEED). Zero keeps the historical fixed seeding, so
	// published series stay reproducible by default.
	Seed int64
	// Durability restricts FigDurability's fsync-policy sweep to one WAL
	// commit mode ("off", "group" or "strict"); empty sweeps all three.
	Durability string

	servers map[string]*server.Server
	routers map[string]*shard.Router
	procs   map[string]*procPair
}

// target is the execution backend a kernel runs against: a single server or
// a shard router. Both expose cache control and the aggregate counters the
// measurements read.
type target interface {
	query.Executor
	Warm()
	ColdStart()
	Stats() server.Stats
}

// procPair is an app's kernel and its transformation, slot-compiled once and
// reused across every measurement so the timed loops never pay compilation.
type procPair struct {
	origProg  *interp.Program
	transProg *interp.Program
}

// NewHarness returns a harness with the default scale (0.2: one simulated
// microsecond costs 200ns of wall clock).
func NewHarness() *Harness {
	return &Harness{
		Scale:   0.2,
		servers: map[string]*server.Server{},
		routers: map[string]*shard.Router{},
		procs:   map[string]*procPair{},
	}
}

func (h *Harness) proc(app *apps.App) (*procPair, error) {
	if p, ok := h.procs[app.Name]; ok {
		return p, nil
	}
	orig := app.Proc()
	trans, rep, err := core.Transform(orig, core.Options{Registry: app.Registry()})
	if err != nil {
		return nil, fmt.Errorf("transform %s: %w", app.Name, err)
	}
	if rep.TransformedCount() == 0 {
		return nil, fmt.Errorf("transform %s: no site transformed (%+v)", app.Name, rep.Sites)
	}
	p := &procPair{origProg: interp.Compile(orig), transProg: interp.Compile(trans)}
	h.procs[app.Name] = p
	return p, nil
}

func (h *Harness) server(app *apps.App, prof server.Profile) (*server.Server, error) {
	key := app.Name + "/" + prof.Name
	if !app.MutatesData {
		if srv, ok := h.servers[key]; ok {
			return srv, nil
		}
	}
	srv := server.New(prof, h.Scale)
	if err := app.Setup(srv, apps.SeededRand()); err != nil {
		srv.Close()
		return nil, fmt.Errorf("setup %s: %w", app.Name, err)
	}
	if !app.MutatesData {
		h.servers[key] = srv
	}
	return srv, nil
}

// router returns a shard router over `shards` backends — each fronted by
// `replicas` read replicas when replicas > 0 — loaded with the app's data,
// cached per (app, profile, shards, replicas) for non-mutating apps.
func (h *Harness) router(app *apps.App, prof server.Profile, shards, replicas int) (*shard.Router, error) {
	key := fmt.Sprintf("%s/%s/%d/r%d", app.Name, prof.Name, shards, replicas)
	if !app.MutatesData {
		if r, ok := h.routers[key]; ok {
			return r, nil
		}
	}
	// The partitioner reads a loaded reference server; for cacheable apps the
	// single-server cache already holds one, so sharded and single-server
	// measurements also share the load cost.
	ref, err := h.server(app, prof)
	if err != nil {
		return nil, err
	}
	if app.MutatesData {
		defer ref.Close()
	}
	r := shard.New(prof, h.Scale, shard.Options{Shards: shards, Keys: app.ShardKeys, Group: replica.Options{Replicas: replicas}})
	if err := r.LoadFrom(ref); err != nil {
		r.Close()
		return nil, fmt.Errorf("shard load %s: %w", app.Name, err)
	}
	if !app.MutatesData {
		h.routers[key] = r
	}
	return r, nil
}

// Close shuts down all cached servers and routers.
func (h *Harness) Close() {
	for _, srv := range h.servers {
		srv.Close()
	}
	h.servers = map[string]*server.Server{}
	for _, r := range h.routers {
		r.Close()
	}
	h.routers = map[string]*shard.Router{}
}

// Config is one measurement's fixed parameters: the workload, the server
// profile, the cache state, the client's worker pool and coalescing bound, and
// the cluster the Cluster mode runs on (Shards backends, each a bare server
// when Replicas is 0 or a primary plus Replicas read copies).
type Config struct {
	App        *apps.App
	Profile    server.Profile
	Threads    int
	Iterations int
	Warm       bool
	MaxBatch   int
	Shards     int
	Replicas   int
}

// Mode is how one run of a measurement submits its queries, and where.
type Mode int

const (
	// Blocking runs the original program: every query is a synchronous call.
	Blocking Mode = iota
	// Async runs the transformed program on a pool of Threads workers, one
	// request per query.
	Async
	// Batched is Async with submissions coalesced up to MaxBatch bindings.
	Batched
	// Cluster is Batched against the sharded cluster instead of one server,
	// batches forming per target shard so the cluster pays the single
	// server's number of round trips.
	Cluster
)

func (m Mode) String() string {
	return [...]string{"blocking", "async", "batched", "cluster"}[m]
}

// Run is what one run of a measurement recorded.
type Run struct {
	// Seconds is wall-clock time rescaled to simulated seconds (divided by
	// Scale), so numbers are comparable across scale settings.
	Seconds float64
	// RoundTrips counts the client-visible server round trips the run paid:
	// the per-request overhead batching amortizes. Sharding splits batches,
	// so a cluster pays more of them, in parallel.
	RoundTrips int64
	// Batches and AvgBatch report the client's coalescing activity.
	Batches  int64
	AvgBatch float64
	// ShardQueries is the per-shard logical statement count (the routing
	// balance) and ReplicaReads, per shard, the reads each replica served
	// (the load balance; nil over bare servers). Cluster runs only.
	ShardQueries []int64
	ReplicaReads [][]int64
}

// Measure is the one measurement: it runs c's workload once per requested
// mode, in order, each against a freshly warmed (or cooled) backend with the
// same seeding, verifies that every run produced the first one's results, and
// returns one record per run.
func (h *Harness) Measure(c Config, modes ...Mode) ([]Run, error) {
	pp, err := h.proc(c.App)
	if err != nil {
		return nil, err
	}
	runs := make([]Run, len(modes))
	var first *interp.Result
	for i, m := range modes {
		res, err := h.run(c, pp, m, &runs[i])
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = res
		} else if err := sameResult(first, res); err != nil {
			return nil, fmt.Errorf("%s: %s results diverge from %s: %w", c.App.Name, m, modes[0], err)
		}
	}
	return runs, nil
}

// run executes one mode of a measurement into rec. The query service is built
// after the cache state is set.
func (h *Harness) run(c Config, pp *procPair, m Mode, rec *Run) (*interp.Result, error) {
	prog, threads, opts := pp.transProg, c.Threads, batch.Options{MaxBatch: 1}
	switch m {
	case Blocking:
		prog, threads = pp.origProg, 0
	case Batched, Cluster:
		opts.MaxBatch = c.MaxBatch
	}
	var tgt target
	var rt *shard.Router
	if m == Cluster {
		var err error
		if rt, err = h.router(c.App, c.Profile, c.Shards, c.Replicas); err != nil {
			return nil, err
		}
		if c.App.MutatesData {
			defer rt.Close()
		}
		tgt, opts.GroupFn = rt, rt.BatchGroup
	} else {
		srv, err := h.server(c.App, c.Profile)
		if err != nil {
			return nil, err
		}
		if c.App.MutatesData {
			defer srv.Close()
		}
		tgt = srv
	}

	if c.Warm {
		tgt.Warm()
	} else {
		tgt.ColdStart()
	}
	svc := batch.NewService(threads, tgt.Exec, tgt.ExecBatch, opts)
	defer svc.Close()
	in := interp.New(c.App.Registry(), svc)
	if c.App.Bind != nil {
		c.App.Bind(in, apps.SeededRand())
	}
	args := c.App.Args(c.Iterations, rand.New(rand.NewSource(h.Seed+int64(c.Iterations)+7)))
	// Each part's count before the run; after it, rec keeps the difference.
	var shards []shard.Backend
	var groups []*replica.Group // nil over bare servers
	if rt != nil {
		shards, groups = rt.Backends(), rt.Groups()
		for _, b := range shards {
			rec.ShardQueries = append(rec.ShardQueries, b.Stats().Queries)
		}
		for _, g := range groups {
			rec.ReplicaReads = append(rec.ReplicaReads, g.ReadCounts())
		}
	}
	before := tgt.Stats().NetRequests
	start := time.Now()
	res, err := in.RunProgram(prog, args)
	rec.Seconds = time.Since(start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", prog.Proc().Name, err)
	}
	svc.Close() // drain so every round trip is accounted before reading stats
	if h.Scale > 0 {
		rec.Seconds /= h.Scale
	}
	rec.RoundTrips = tgt.Stats().NetRequests - before
	rec.Batches, rec.AvgBatch = svc.BatchStats()
	for i, b := range shards {
		rec.ShardQueries[i] = b.Stats().Queries - rec.ShardQueries[i]
	}
	for s, g := range groups {
		for i, n := range g.ReadCounts() {
			rec.ReplicaReads[s][i] = n - rec.ReplicaReads[s][i]
		}
	}
	return res, nil
}

func sameResult(a, b *interp.Result) error {
	if len(a.Returned) != len(b.Returned) {
		return fmt.Errorf("return arity %d vs %d", len(a.Returned), len(b.Returned))
	}
	for i := range a.Returned {
		if !interp.Equal(a.Returned[i], b.Returned[i]) {
			return fmt.Errorf("return %d: %v vs %v", i,
				interp.Format(a.Returned[i]), interp.Format(b.Returned[i]))
		}
	}
	if a.Output != b.Output {
		return fmt.Errorf("output streams differ")
	}
	return nil
}

// pick returns full when the harness runs full-size, quick otherwise.
func (h *Harness) pick(full, quick []int) []int {
	if h.Quick {
		return quick
	}
	return full
}
