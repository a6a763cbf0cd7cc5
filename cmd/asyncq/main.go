// Command asyncq is the transformation tool: it parses a mini-language
// program and rewrites it for asynchronous query submission, printing the
// transformed source, the data dependence graph, or the applicability
// analysis.
//
// Usage:
//
//	asyncq [-analyze] [-ddg] [-flat] [-run] [-threads N] [-batch N] [-stats] [-slowlog 5ms] file.mq
//	asyncq -serve [-addr host:port] [-rows N] [-inflight N] [-replicas N] [-durability off|group|strict] [-scale F] [-stats]
//
// With no flags the transformed program is printed (readable form, §V).
// With -run the original program runs blocking and the transformed program
// runs on a worker pool against the deterministic test service
// (internal/testsvc), and the two results are compared. With -run -batch N
// the transformed program's submissions are coalesced into batches of up to
// N requests (0 = batching off) and the batch statistics are reported. The
// test service is a pure function of the request, so -run shows what the
// rewrite does to a program, not how a cluster behaves: sharding,
// replication, durability and re-sharding are measured on the real stack by
// cmd/experiments (-fig shard-scale|replica-scale|durability|reshard) and
// `go run ./bench`.
//
// With -stats the run's observability registry — request/queue/batch-wait
// span histograms and executor counters — is dumped to stderr. With -slowlog
// every request slower than the threshold has its span tree rendered to
// stderr as it completes.
//
// With -serve it serves, until SIGINT or SIGTERM, the posture the repository
// benchmark measures (experiments.Serve): a front door admitting -inflight
// requests, over a router of two shards keyed on the -rows-row `load` table's
// id, each a primary and -replicas synchronous replicas over a -durability
// WAL. -stats then dumps the door's, router's and groups' counters.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minilang"
	"repro/internal/obs"
	"repro/internal/testsvc"
)

func main() {
	analyze := flag.Bool("analyze", false, "print the applicability analysis instead of code")
	ddg := flag.Bool("ddg", false, "print the DDG of each loop in Graphviz dot form")
	flat := flag.Bool("flat", false, "print guarded-statement form (skip the §V regrouping)")
	run := flag.Bool("run", false, "run original and transformed against a deterministic service and compare")
	threads := flag.Int("threads", 8, "worker threads for -run")
	batchSize := flag.Int("batch", 0, "coalesce submissions into batches of up to N requests for -run (0 = off)")
	stats := flag.Bool("stats", false, "after -run (or at -serve shutdown), dump the metrics registry to stderr")
	slowlog := flag.Duration("slowlog", 0, "render -run requests slower than this wall-clock threshold as span trees on stderr (0 = off)")
	doServe := flag.Bool("serve", false, "serve the simulated database over the wire protocol (internal/net) instead of transforming a program")
	addr := flag.String("addr", "127.0.0.1:7474", "-serve listen address")
	rows := flag.Int("rows", 10000, "-serve: rows preloaded into the `load` table")
	inflight := flag.Int("inflight", 64, "-serve: admission budget (max concurrently executing request units; 0 = unlimited)")
	replicas := flag.Int("replicas", 1, "-serve: read replicas behind the primary")
	durability := flag.String("durability", "group", "-serve: WAL commit mode (off|group|strict)")
	scale := flag.Float64("scale", 0.02, "-serve: simulated-time scale factor for the backing server")
	flag.Parse()

	if *doServe {
		if err := serve(serveOptions{
			addr: *addr, rows: *rows, inflight: *inflight,
			replicas: *replicas, durability: *durability,
			scale: *scale, stats: *stats,
		}); err != nil {
			fatal(err)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: asyncq [flags] file.mq")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	proc, err := minilang.Parse(string(src))
	if err != nil {
		fatal(err)
	}

	if *ddg {
		printDDGs(proc)
		return
	}

	opts := core.Options{Readable: !*flat}
	trans, rep, err := core.Transform(proc, opts)
	if err != nil {
		fatal(err)
	}

	if *analyze {
		fmt.Printf("procedure %s: %d opportunity site(s), %d transformed\n",
			rep.Proc, rep.Opportunities(), rep.TransformedCount())
		for i, s := range rep.Sites {
			status := "transformed"
			if !s.Transformed() {
				status = "NOT transformed"
			}
			fmt.Printf("  site %d: %s — %s (queries: %d, converted: %d, reorder: %v, ruleB: %v)\n",
				i+1, s.Loop, status, s.Queries, s.Converted, s.UsedReorder, s.UsedFlatten)
			for _, r := range s.Reasons {
				fmt.Printf("    reason: %s\n", r)
			}
		}
		return
	}

	fmt.Print(ir.Print(trans))

	if *run {
		reg := ir.NewRegistry()
		in1 := interp.New(reg, testsvc.NewSync())
		args := defaultArgs(proc)
		r1, err := in1.Run(proc, args)
		if err != nil {
			fatal(fmt.Errorf("run original: %w", err))
		}
		// -batch below 2 (0 is the flag's default) asks for no coalescing,
		// which batch.NewService spells MaxBatch 1; its 0 means the default.
		svc := batch.NewService(*threads, testsvc.Runner(), testsvc.BatchRunner(),
			batch.Options{MaxBatch: max(*batchSize, 1)})
		defer svc.Close()
		// -stats / -slowlog turn on the observability stack: one root span
		// per submission (the deterministic test runner needs no span
		// runners — queue wait and batch coalescing are still measured),
		// with the executor counters pulled into the same registry.
		var obsReg *obs.Registry
		if *stats || *slowlog > 0 {
			obsReg = obs.NewRegistry()
			tr := obs.NewTracer(obsReg)
			if *slowlog > 0 {
				tr.SetSlowLog(*slowlog, os.Stderr)
			}
			svc.EnableTracing(tr)
			obsReg.RegisterSource("exec", func() map[string]float64 {
				submitted, completed := svc.Stats()
				batches, avg := svc.BatchStats()
				return map[string]float64{
					"submitted": float64(submitted),
					"completed": float64(completed),
					"batches":   float64(batches),
					"batch.avg": avg,
				}
			})
		}
		in2 := interp.New(reg, svc)
		r2, err := in2.Run(trans, args)
		if err != nil {
			fatal(fmt.Errorf("run transformed: %w", err))
		}
		same := r1.Output == r2.Output && len(r1.Returned) == len(r2.Returned)
		for i := range r1.Returned {
			same = same && interp.Equal(r1.Returned[i], r2.Returned[i])
		}
		fmt.Fprintf(os.Stderr, "\n-- run: results identical: %v; returns: %v\n",
			same, formatVals(r1.Returned))
		if batches, avg := svc.BatchStats(); batches > 0 {
			submitted, _ := svc.Stats()
			fmt.Fprintf(os.Stderr, "-- batch: %d submissions coalesced into %d batches (avg size %.1f)\n",
				submitted, batches, avg)
		}
		// Drain the pool before reading final span state: every pending
		// handle completes (ending its request span) before the dump.
		svc.Close()
		if *stats && obsReg != nil {
			fmt.Fprintln(os.Stderr, "\n-- stats:")
			if err := obsReg.Dump(os.Stderr); err != nil {
				fatal(err)
			}
		}
	}
}

// defaultArgs supplies simple arguments so -run works on programs with
// integer or list parameters: a parameter that is a foreach collection or an
// argument of empty, first, removeFirst or size gets [1..12], any other 20.
func defaultArgs(p *ir.Proc) []interp.Value {
	lists := map[string]bool{}
	mark := func(e ir.Expr) {
		if v, ok := e.(*ir.Var); ok {
			lists[v.Name] = true
		}
	}
	ir.WalkStmts(p.Body, func(s ir.Stmt) {
		if f, ok := s.(*ir.ForEach); ok {
			mark(f.Coll)
		}
		ir.WalkExprs(s, func(e ir.Expr) {
			if c, ok := e.(*ir.Call); ok {
				switch c.Fn {
				case "empty", "first", "removeFirst", "size":
					for _, a := range c.Args {
						mark(a)
					}
				}
			}
		})
	})
	args := make([]interp.Value, len(p.Params))
	for i, name := range p.Params {
		args[i] = int64(20)
		if lists[name] {
			items := make([]interp.Value, 12)
			for j := range items {
				items[j] = int64(j + 1)
			}
			args[i] = interp.NewList(items...)
		}
	}
	return args
}

func formatVals(vals []interp.Value) string {
	out := "["
	for i, v := range vals {
		if i > 0 {
			out += ", "
		}
		out += interp.Format(v)
	}
	return out + "]"
}

func printDDGs(proc *ir.Proc) {
	reg := ir.NewRegistry()
	n := 0
	ir.WalkStmts(proc.Body, func(s ir.Stmt) {
		switch s.(type) {
		case *ir.While, *ir.ForEach, *ir.Scan:
			n++
			g := dataflow.BuildLoop(s, reg)
			fmt.Print(g.Dot(fmt.Sprintf("%s_loop%d", proc.Name, n)))
		}
	})
	if n == 0 {
		fmt.Fprintln(os.Stderr, "asyncq: no loops found")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asyncq:", err)
	os.Exit(1)
}
