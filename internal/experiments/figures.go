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

// sweepKind is what the families of time-vs-x figures differ in: the Config
// field x sets, the submission modes compared, how a mode's series is labelled
// and what the notes state (last is the largest x's runs).
type sweepKind struct {
	xlabel, xname string
	set           func(c *Config, x int)
	modes         []Mode
	label         func(m Mode, cache string) string
	notes         func(c Config, cache string, last []Run) []string
}

// program names the kernel a mode runs.
func program(m Mode) string {
	if m == Blocking {
		return "Original Program"
	}
	return "Transformed Program"
}

var (
	// byIterations: original vs transformed over the iteration count, one pair
	// of series per cache state.
	byIterations = sweepKind{
		xlabel: "Number of iterations", xname: "n",
		set:   func(c *Config, x int) { c.Iterations = x },
		modes: []Mode{Blocking, Async},
		label: func(m Mode, cache string) string { return program(m) + " (" + cache + " Cache)" },
		notes: func(c Config, _ string, _ []Run) []string {
			return []string{fmt.Sprintf("Database: %s, Threads: %d", c.Profile.Name, c.Threads)}
		},
	}
	// byThreads: original vs transformed over the worker-pool size.
	byThreads = sweepKind{
		xlabel: "Number of threads", xname: "threads",
		set:   func(c *Config, x int) { c.Threads = x },
		modes: []Mode{Blocking, Async},
		label: func(m Mode, _ string) string { return program(m) },
		notes: func(c Config, cache string, _ []Run) []string {
			return []string{fmt.Sprintf("Database: %s, Cache: %s, Iterations: %d", c.Profile.Name, cache, c.Iterations)}
		},
	}
	// byIterationsBatched: synchronous vs asynchronous vs batched over the
	// iteration count — the batched-submission experiment that goes beyond the
	// paper's figures (batching is the sibling transformation the paper names
	// in §I).
	byIterationsBatched = sweepKind{
		xlabel: "Number of iterations", xname: "n",
		set:   func(c *Config, x int) { c.Iterations = x },
		modes: []Mode{Blocking, Async, Batched},
		label: func(m Mode, _ string) string { return program(m) + " (" + m.String() + ")" },
		notes: func(c Config, cache string, last []Run) []string {
			return []string{
				fmt.Sprintf("Database: %s, Cache: %s, Threads: %d, MaxBatch: %d",
					c.Profile.Name, cache, c.Threads, c.MaxBatch),
				fmt.Sprintf("Largest run: %d batches (avg size %.1f); round trips: %d async vs %d batched",
					last[2].Batches, last[2].AvgBatch, last[1].RoundTrips, last[2].RoundTrips)}
		},
	}
)

// sweep is the one time-vs-x figure: for each cache state it measures c under
// the kind's modes at every x and plots each mode's seconds as a series.
func (h *Harness) sweep(fig, title string, k sweepKind, c Config, xs []int, caches ...bool) (*Figure, error) {
	f := &Figure{ID: fig, Title: title, XLabel: k.xlabel, YLabel: "Time (in sec)"}
	var last []Run
	for _, c.Warm = range caches {
		series := make([]Series, len(k.modes))
		for i, m := range k.modes {
			series[i].Label = k.label(m, cacheName(c.Warm))
		}
		for _, x := range xs {
			k.set(&c, x)
			runs, err := h.Measure(c, k.modes...)
			if err != nil {
				return nil, fmt.Errorf("%s %s=%d: %w", fig, k.xname, x, err)
			}
			for i, r := range runs {
				series[i].Points = append(series[i].Points, Point{X: x, Y: r.Seconds})
			}
			last = runs
		}
		f.Series = append(f.Series, series...)
	}
	f.Notes = k.notes(c, cacheName(c.Warm), last)
	return f, nil
}

func cacheName(warm bool) string {
	if warm {
		return "Warm"
	}
	return "Cold"
}

// Fig08 — Experiment 1 (RUBiS auction) on SYS1, 10 threads, varying the
// number of iterations, warm and cold caches.
func (h *Harness) Fig08() (*Figure, error) {
	iters := h.pick([]int{4, 40, 400, 4000, 40000}, []int{4, 40, 400})
	return h.sweep("Fig 8", "Experiment 1 with varying number of iterations", byIterations,
		Config{App: apps.RUBiS(), Profile: server.SYS1(), Threads: 10}, iters, false, true)
}

// Fig09 — Experiment 1 on SYS1, 40k iterations, warm cache, varying threads.
func (h *Harness) Fig09() (*Figure, error) {
	threads := h.pick([]int{1, 2, 5, 10, 20, 30, 40, 50}, []int{1, 5, 20})
	iters := h.iters(40000, 2000)
	return h.sweep("Fig 9", "Experiment 1 with varying number of threads", byThreads,
		Config{App: apps.RUBiS(), Profile: server.SYS1(), Iterations: iters}, threads, true)
}

// Fig10 — Experiment 1 on the PostgreSQL profile, varying threads.
func (h *Harness) Fig10() (*Figure, error) {
	threads := h.pick([]int{1, 2, 5, 10, 20, 30, 40, 50}, []int{1, 5, 20})
	iters := h.iters(40000, 2000)
	return h.sweep("Fig 10", "Experiment 1 with varying number of threads", byThreads,
		Config{App: apps.RUBiS(), Profile: server.Postgres(), Iterations: iters}, threads, true)
}

// Fig11 — Experiment 2 (RUBBoS bulletin board) on PostgreSQL, 10 threads,
// warm cache, varying iterations.
func (h *Harness) Fig11() (*Figure, error) {
	iters := h.pick([]int{6, 60, 600, 6000}, []int{6, 60})
	return h.sweep("Fig 11", "Experiment 2 with varying number of iterations", byIterations,
		Config{App: apps.RUBBoS(), Profile: server.Postgres(), Threads: 10}, iters, true)
}

// Fig12 — Experiment 3 (category traversal) on SYS1, 10 threads, varying
// iterations, warm and cold.
func (h *Harness) Fig12() (*Figure, error) {
	iters := h.pick([]int{1, 11, 100}, []int{1, 11})
	return h.sweep("Fig 12", "Experiment 3 with varying iterations", byIterations,
		Config{App: apps.Category(), Profile: server.SYS1(), Threads: 10}, iters, false, true)
}

// Fig13 — Experiment 3 on SYS1, cold cache, 100 iterations, varying threads.
func (h *Harness) Fig13() (*Figure, error) {
	threads := h.pick([]int{1, 2, 5, 10, 20, 30, 40, 50}, []int{1, 5, 20})
	return h.sweep("Fig 13", "Experiment 3 with varying number of threads", byThreads,
		Config{App: apps.Category(), Profile: server.SYS1(), Iterations: h.iters(100, 40)}, threads, false)
}

// Fig14 — Experiment 4 (value range expansion, INSERTs) on SYS1, 30
// threads, varying iterations. Results are cache-independent (write-back).
func (h *Harness) Fig14() (*Figure, error) {
	iters := h.pick([]int{10, 100, 1000, 10000, 100000}, []int{10, 100, 1000})
	return h.sweep("Fig 14", "Experiment 4 with varying number of iterations", byIterations,
		Config{App: apps.Forms(), Profile: server.SYS1(), Threads: 30}, iters, true)
}

// Fig15 — Experiment 5 (web service invocation), 240 iterations, varying
// threads.
func (h *Harness) Fig15() (*Figure, error) {
	threads := h.pick([]int{1, 2, 5, 10, 15, 20, 25}, []int{1, 5, 15})
	return h.sweep("Fig 15", "Experiment 5 with varying number of threads", byThreads,
		Config{App: apps.WebServiceApp(), Profile: server.WebService(), Iterations: h.iters(240, 60)}, threads, true)
}

func (h *Harness) iters(full, quick int) int {
	if h.Quick {
		return quick
	}
	return full
}

// FigBatchCategory — batched vs async vs sync submission on the
// category-traversal workload, cold cache (the configuration where shared
// page accesses matter most).
func (h *Harness) FigBatchCategory() (*Figure, error) {
	iters := h.pick([]int{1, 11, 100}, []int{1, 11})
	return h.sweep("Batch A", "Batched submission: category traversal", byIterationsBatched,
		Config{App: apps.Category(), Profile: server.SYS1(), Threads: 10, MaxBatch: 16}, iters, false)
}

// FigBatchRUBiS — batched vs async vs sync submission on the RUBiS auction
// workload, warm cache (round-trip amortization only).
func (h *Harness) FigBatchRUBiS() (*Figure, error) {
	iters := h.pick([]int{4, 40, 400, 4000}, []int{4, 40, 400})
	return h.sweep("Batch B", "Batched submission: RUBiS auction", byIterationsBatched,
		Config{App: apps.RUBiS(), Profile: server.SYS1(), Threads: 10, MaxBatch: 16}, iters, true)
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

// bestCluster returns the fastest of reps cluster runs of c, each verified
// against the same batched workload on a single server.
func (h *Harness) bestCluster(reps int, c Config) (Run, error) {
	runs, err := BestOf(reps, func(r []Run) float64 { return -r[1].Seconds }, func() ([]Run, error) {
		return h.Measure(c, Batched, Cluster)
	})
	if err != nil {
		return Run{}, err
	}
	return runs[1], nil
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
		if warm {
			iters = h.iters(4000, 400)
		}
		var tput Series
		tput.Label = fmt.Sprintf("Batched throughput (%s Cache)", cacheName(warm))
		for _, n := range shards {
			best, err := h.bestCluster(3, Config{App: apps.RUBiS(), Profile: server.SYS1(), Threads: threads,
				Iterations: iters, Warm: warm, MaxBatch: maxBatch, Shards: n})
			if err != nil {
				return nil, fmt.Errorf("shard-scale %s n=%d: %w", tput.Label, n, err)
			}
			tput.Points = append(tput.Points, Point{X: n, Y: float64(iters) / best.Seconds})
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
		best, err := h.bestCluster(5, Config{App: apps.RUBiS(), Profile: server.SYS1(), Threads: threads,
			Iterations: iters, MaxBatch: maxBatch, Shards: 1, Replicas: nrep})
		if err != nil {
			return nil, fmt.Errorf("replica-scale r=%d: %w", nrep, err)
		}
		tput.Points = append(tput.Points, Point{X: nrep, Y: float64(iters) / best.Seconds})
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
			rep := core.Analyze(p, core.Options{})
			row.Opportunities += rep.Opportunities()
			row.Transformed += rep.TransformedCount()
		}
		rows = append(rows, row)
	}
	return rows
}
