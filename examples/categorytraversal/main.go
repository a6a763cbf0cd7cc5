// Category traversal (the paper's Experiment 3): a DFS over a category
// hierarchy that queries the item table once per visited node, run before
// and after transformation against the simulated SYS1 database with a cold
// buffer cache. Demonstrates the full pipeline — statement reordering
// followed by loop fission — and the cold-cache concurrency gains from the
// disk's elevator scheduling.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/server"
)

func main() {
	app := apps.Category()
	orig := app.Proc()

	// Transform (needs the reorder algorithm first: the frontier update is
	// a loop-carried flow dependence into the loop predicate).
	trans, rep, err := core.Transform(orig, core.Options{
		Registry: app.Registry(), Readable: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- transformed program (readable form) ---")
	fmt.Println(ir.Print(trans))
	for _, s := range rep.Sites {
		fmt.Printf("site %q: converted %d/%d queries (reorder used: %v)\n\n",
			s.Loop, s.Converted, s.Queries, s.UsedReorder)
	}

	// Load the simulated database (SYS1 profile, scale 0.1: one simulated
	// microsecond = 100ns wall).
	fmt.Println("loading item table...")
	srv := server.New(server.SYS1(), 0.1)
	defer srv.Close()
	if err := app.Setup(srv, apps.SeededRand()); err != nil {
		log.Fatal(err)
	}

	const iterations = 60
	const threads = 10
	args := app.Args(iterations, apps.SeededRand())

	run := func(p *ir.Proc, workers int) (*interp.Result, time.Duration) {
		srv.ColdStart() // cold cache for both runs
		svc := exec.NewService(workers, srv.Exec)
		defer svc.Close()
		in := interp.New(app.Registry(), svc)
		app.Bind(in, apps.SeededRand())
		start := time.Now()
		res, err := in.Run(p, args)
		if err != nil {
			log.Fatal(err)
		}
		return res, time.Since(start)
	}

	fmt.Printf("running original (blocking) with cold cache, %d iterations...\n", iterations)
	r1, d1 := run(orig, 0)
	fmt.Printf("  time: %v, result: %s\n", d1, interp.Format(r1.Returned[0]))

	fmt.Printf("running transformed (%d threads) with cold cache...\n", threads)
	r2, d2 := run(trans, threads)
	fmt.Printf("  time: %v, result: %s\n", d2, interp.Format(r2.Returned[0]))

	if !interp.Equal(r1.Returned[0], r2.Returned[0]) {
		log.Fatal("results differ!")
	}
	fmt.Printf("speedup: %.1fx (results identical)\n", d1.Seconds()/d2.Seconds())

	st := srv.Stats()
	fmt.Printf("server: %d queries, buffer %d hits / %d misses, disk avg queue %.1f\n",
		st.Queries, st.BufferHits, st.BufferMiss, st.Disk.AvgQueue)
}
