// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI): Figures 8–15 and Table I. Each figure function returns
// the measured series in the paper's coordinates; Render prints them as
// aligned text tables. Absolute times differ from the paper (the substrate
// is a simulator), but the shapes — who wins, crossover points, saturation
// behaviour — are the reproduction targets; PERF.md lists the command that
// regenerates each.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/shard"
)

// Harness runs measurements, caching loaded servers and shard routers per
// (app, profile[, shards]).
type Harness struct {
	// Scale is the wall-clock scale factor for simulated latencies.
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

	servers map[string]*loadedServer
	routers map[string]*shard.Router
	procs   map[string]*procPair
}

type loadedServer struct {
	srv *server.Server
	app *apps.App
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

type procPair struct {
	orig  *ir.Proc
	trans *ir.Proc
	rep   *core.Report
	// Slot-compiled forms, compiled once per app and reused across every
	// measurement so the timed loops never pay compilation.
	origProg  *interp.Program
	transProg *interp.Program
}

// NewHarness returns a harness with the default scale (0.2: one simulated
// microsecond costs 200ns of wall clock).
func NewHarness() *Harness {
	return &Harness{
		Scale:   0.2,
		servers: map[string]*loadedServer{},
		routers: map[string]*shard.Router{},
		procs:   map[string]*procPair{},
	}
}

// Measurement is one (app, config) data point.
type Measurement struct {
	App        string
	Profile    string
	Threads    int
	Warm       bool
	Iterations int
	// Original and Transformed are wall-clock seconds, rescaled to
	// simulated seconds (i.e. divided by Scale) so numbers are comparable
	// across scale settings.
	Original    float64
	Transformed float64
}

func (h *Harness) proc(app *apps.App) (*procPair, error) {
	if p, ok := h.procs[app.Name]; ok {
		return p, nil
	}
	orig := app.Proc()
	trans, rep, err := core.Transform(orig, core.Options{
		Registry:    app.Registry(),
		SplitNested: true,
	})
	if err != nil {
		return nil, fmt.Errorf("transform %s: %w", app.Name, err)
	}
	if rep.TransformedCount() == 0 {
		return nil, fmt.Errorf("transform %s: no site transformed (%+v)", app.Name, rep.Sites)
	}
	p := &procPair{
		orig: orig, trans: trans, rep: rep,
		origProg: interp.Compile(orig), transProg: interp.Compile(trans),
	}
	h.procs[app.Name] = p
	return p, nil
}

func (h *Harness) server(app *apps.App, prof server.Profile) (*server.Server, error) {
	key := app.Name + "/" + prof.Name
	if !app.MutatesData {
		if ls, ok := h.servers[key]; ok {
			ls.srv.Clock.SetScale(h.Scale)
			return ls.srv, nil
		}
	}
	srv := server.New(prof, h.Scale)
	if err := app.Setup(srv, apps.SeededRand()); err != nil {
		srv.Close()
		return nil, fmt.Errorf("setup %s: %w", app.Name, err)
	}
	if !app.MutatesData {
		h.servers[key] = &loadedServer{srv: srv, app: app}
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
			r.SetScale(h.Scale)
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
	r := shard.New(prof, h.Scale, shard.Options{Shards: shards, Keys: app.ShardKeys, Replicas: replicas})
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
	for _, ls := range h.servers {
		ls.srv.Close()
	}
	h.servers = map[string]*loadedServer{}
	for _, r := range h.routers {
		r.Close()
	}
	h.routers = map[string]*shard.Router{}
}

// runInfo captures one kernel run's service and server counters.
type runInfo struct {
	NetRequests   int64
	BatchesIssued int64
	AvgBatchSize  float64
}

// submission is how one kernel run reaches its backend: threads 0 is an
// original program's blocking environment, maxBatch 1 a plain pool, and
// anything larger a coalescing pool whose key groupFn refines (nil: the
// statement alone).
type submission struct {
	threads, maxBatch int
	groupFn           func(name, sql string, args []any) int
}

// service builds a run's query service over its target. The linger window
// is wall time, so it is scaled like every simulated latency and batched
// series stay comparable across -scale.
func (h *Harness) service(tgt target, sub submission) *exec.Service {
	return batch.NewService(sub.threads, tgt.Exec, tgt.ExecBatch, batch.Options{
		MaxBatch: sub.maxBatch,
		Linger:   time.Duration(float64(batch.DefaultLinger) * h.Scale),
		GroupFn:  sub.groupFn,
	})
}

// runKernel executes one compiled kernel against a freshly warmed (or
// cooled) server and returns the result, the elapsed simulated seconds, and
// the run's counters. It is the single measurement path shared by Measure
// and MeasureBatched, so every configuration (seeding, warm-up, scale
// handling) stays identical across submission modes.
func (h *Harness) runKernel(app *apps.App, prof server.Profile, p *interp.Program,
	iterations int, warm bool, sub submission) (*interp.Result, float64, runInfo, error) {

	srv, err := h.server(app, prof)
	if err != nil {
		return nil, 0, runInfo{}, err
	}
	if app.MutatesData {
		defer srv.Close()
	}
	return h.runOn(app, srv, p, iterations, warm, sub)
}

// runOn is runKernel against an already-acquired target (single server or
// shard router); the query service is built after the cache state is set,
// exactly as the single-server path always did.
func (h *Harness) runOn(app *apps.App, tgt target, p *interp.Program,
	iterations int, warm bool, sub submission) (*interp.Result, float64, runInfo, error) {

	var ri runInfo
	if warm {
		tgt.Warm()
	} else {
		tgt.ColdStart()
	}
	svc := h.service(tgt, sub)
	defer svc.Close()
	in := interp.New(app.Registry(), svc)
	if app.Bind != nil {
		app.Bind(in, apps.SeededRand())
	}
	args := app.Args(iterations, rand.New(rand.NewSource(h.Seed+int64(iterations)+7)))
	before := tgt.Stats().NetRequests
	start := time.Now()
	res, err := in.RunProgram(p, args)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, ri, fmt.Errorf("run %s: %w", p.Proc().Name, err)
	}
	svc.Close() // drain so every round trip is accounted before reading stats
	ri.NetRequests = tgt.Stats().NetRequests - before
	ri.BatchesIssued, ri.AvgBatchSize = svc.BatchStats()
	if h.Scale > 0 {
		elapsed /= h.Scale
	}
	return res, elapsed, ri, nil
}

// measureAsync times the original kernel blocking and the transformed kernel
// on a pool of `threads` workers, verifying that both produce identical
// results: the comparison every submission-mode measurement starts from.
func (h *Harness) measureAsync(app *apps.App, prof server.Profile, threads, iterations int, warm bool) (
	pp *procPair, asyncRes *interp.Result, syncSec, asyncSec float64, asyncInfo runInfo, err error) {

	if pp, err = h.proc(app); err != nil {
		return
	}
	syncRes, syncSec, _, err := h.runKernel(app, prof, pp.origProg, iterations, warm,
		submission{threads: 0, maxBatch: 1})
	if err != nil {
		return
	}
	asyncRes, asyncSec, asyncInfo, err = h.runKernel(app, prof, pp.transProg, iterations, warm,
		submission{threads: threads, maxBatch: 1})
	if err != nil {
		return
	}
	if err = sameResult(syncRes, asyncRes); err != nil {
		err = fmt.Errorf("%s: transformed program produced different results: %w", app.Name, err)
	}
	return
}

// Measure times the original and transformed kernels under one
// configuration, verifying that both produce identical results.
func (h *Harness) Measure(app *apps.App, prof server.Profile, threads, iterations int, warm bool) (Measurement, error) {
	m := Measurement{
		App: app.Name, Profile: prof.Name,
		Threads: threads, Warm: warm, Iterations: iterations,
	}
	var err error
	_, _, m.Original, m.Transformed, _, err = h.measureAsync(app, prof, threads, iterations, warm)
	return m, err
}

// BatchMeasurement is one (app, config) data point comparing synchronous
// (original program), asynchronous (transformed, per-query submission) and
// batched (transformed, coalesced submission) execution.
type BatchMeasurement struct {
	App        string
	Profile    string
	Threads    int
	Warm       bool
	Iterations int
	MaxBatch   int
	// Sync, Async and Batched are simulated seconds (see Measurement).
	Sync    float64
	Async   float64
	Batched float64
	// BatchesIssued / AvgBatchSize report the executor's coalescing
	// activity during the batched run.
	BatchesIssued int64
	AvgBatchSize  float64
	// NetRequestsAsync / NetRequestsBatched count the server round trips
	// each submission mode paid — the per-request overhead batching
	// amortizes.
	NetRequestsAsync   int64
	NetRequestsBatched int64
}

// MeasureBatched times the original kernel synchronously and the transformed
// kernel both per-query (async) and batched, verifying that all three
// produce identical results.
func (h *Harness) MeasureBatched(app *apps.App, prof server.Profile, threads, iterations int, warm bool, maxBatch int) (BatchMeasurement, error) {
	m := BatchMeasurement{
		App: app.Name, Profile: prof.Name,
		Threads: threads, Warm: warm, Iterations: iterations, MaxBatch: maxBatch,
	}
	pp, asyncRes, syncSec, asyncSec, asyncInfo, err := h.measureAsync(app, prof, threads, iterations, warm)
	if err != nil {
		return m, err
	}
	batchRes, batchSec, batchInfo, err := h.runKernel(app, prof, pp.transProg, iterations, warm,
		submission{threads: threads, maxBatch: maxBatch})
	if err != nil {
		return m, err
	}
	m.NetRequestsAsync = asyncInfo.NetRequests
	m.NetRequestsBatched = batchInfo.NetRequests
	m.BatchesIssued, m.AvgBatchSize = batchInfo.BatchesIssued, batchInfo.AvgBatchSize
	if err := sameResult(asyncRes, batchRes); err != nil {
		return m, fmt.Errorf("%s: batched results diverge from async: %w", app.Name, err)
	}
	m.Sync, m.Async, m.Batched = syncSec, asyncSec, batchSec
	return m, nil
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

// ClusterMeasurement is one (app, topology) data point comparing
// single-server batched execution against the same batched workload on a
// cluster of Shards backends, each a bare server (Replicas == 0) or a replica
// group of one primary plus Replicas read copies.
type ClusterMeasurement struct {
	App        string
	Profile    string
	Threads    int
	Warm       bool
	Iterations int
	MaxBatch   int
	Shards     int
	Replicas   int
	// Single and Cluster are simulated seconds for the transformed, batched
	// kernel on one server vs the cluster.
	Single  float64
	Cluster float64
	// Throughput is Iterations/Cluster: logical queries per simulated second
	// on the cluster (the scale figures' y axis).
	Throughput float64
	// NetRequestsSingle / NetRequestsCluster count client-visible round
	// trips. Sharding splits batches, so the cluster count is higher while
	// the trips run in parallel; read batches ride one trip to one replica,
	// so only write replication fans out further.
	NetRequestsSingle  int64
	NetRequestsCluster int64
	// ShardQueries is the per-shard logical statement count of the cluster
	// run — the routing balance.
	ShardQueries []int64
	// ReplicaReads is, per shard, the reads each replica served during the
	// run — the load-balancing evidence (nil over bare servers).
	ReplicaReads [][]int64
}

// speedScore ranks repeated measurements for BestOf.
func (m ClusterMeasurement) speedScore() float64 { return m.Throughput }

// MeasureCluster times the transformed kernel with batched submission on a
// single server and on a cluster of `shards` backends fronted by `replicas`
// read copies each (0 = bare servers), verifying that both produce
// identical results.
func (h *Harness) MeasureCluster(app *apps.App, prof server.Profile,
	threads, iterations int, warm bool, maxBatch, shards, replicas int) (ClusterMeasurement, error) {

	m := ClusterMeasurement{
		App: app.Name, Profile: prof.Name,
		Threads: threads, Warm: warm, Iterations: iterations,
		MaxBatch: maxBatch, Shards: shards, Replicas: replicas,
	}
	pp, err := h.proc(app)
	if err != nil {
		return m, err
	}
	singleRes, singleSec, singleInfo, err := h.runKernel(app, prof, pp.transProg, iterations, warm,
		submission{threads: threads, maxBatch: maxBatch})
	if err != nil {
		return m, err
	}

	rt, err := h.router(app, prof, shards, replicas)
	if err != nil {
		return m, err
	}
	if app.MutatesData {
		defer rt.Close()
	}
	// Shard-aware coalescing: batches form per target shard, so the cluster
	// pays the same number of round trips as the single server.
	beforeShard, beforeReads := rt.ShardStats(), rt.ReplicaReads()
	res, sec, info, err := h.runOn(app, rt, pp.transProg, iterations, warm,
		submission{threads: threads, maxBatch: maxBatch, groupFn: rt.BatchGroup})
	if err != nil {
		return m, err
	}
	if err := sameResult(singleRes, res); err != nil {
		return m, fmt.Errorf("%s: cluster results diverge from single-server: %w", app.Name, err)
	}
	m.Single, m.Cluster = singleSec, sec
	if sec > 0 {
		m.Throughput = float64(iterations) / sec
	}
	m.NetRequestsSingle = singleInfo.NetRequests
	m.NetRequestsCluster = info.NetRequests
	for i, s := range rt.ShardStats() {
		m.ShardQueries = append(m.ShardQueries, s.Queries-beforeShard[i].Queries)
	}
	for s, reads := range rt.ReplicaReads() {
		for i := range reads {
			reads[i] -= beforeReads[s][i]
		}
		m.ReplicaReads = append(m.ReplicaReads, reads)
	}
	return m, nil
}

// pick returns full when the harness runs full-size, quick otherwise.
func (h *Harness) pick(full, quick []int) []int {
	if h.Quick {
		return quick
	}
	return full
}
