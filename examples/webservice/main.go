// Web-service prefetching (the paper's Experiment 5): a client fetching
// per-director movie counts from a remote entity-graph service whose API
// supports neither joins nor set-oriented requests, so it must loop — and
// wide-area round-trip latency dominates. The transformation overlaps the
// HTTP-like requests; this example sweeps the thread count like Figure 15.
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
	app := apps.WebServiceApp()
	orig := app.Proc()
	trans, _, err := core.Transform(orig, core.Options{Registry: app.Registry()})
	if err != nil {
		log.Fatal(err)
	}

	srv := server.New(server.WebService(), 0.05)
	defer srv.Close()
	if err := app.Setup(srv, apps.SeededRand()); err != nil {
		log.Fatal(err)
	}
	srv.Warm()

	const iterations = 120
	args := app.Args(iterations, apps.SeededRand())

	run := func(p *ir.Proc, workers int) (time.Duration, interp.Value) {
		svc := exec.NewService(workers, srv.Exec)
		defer svc.Close()
		in := interp.New(app.Registry(), svc)
		start := time.Now()
		res, err := in.Run(p, args)
		if err != nil {
			log.Fatal(err)
		}
		return time.Since(start), res.Returned[0]
	}

	origTime, origVal := run(orig, 0)
	fmt.Printf("original (blocking), %d requests: %v (total movies: %s)\n",
		iterations, origTime, interp.Format(origVal))

	fmt.Println("transformed, varying threads (cf. paper Figure 15):")
	for _, t := range []int{1, 2, 5, 10, 15, 20, 25} {
		d, v := run(trans, t)
		if !interp.Equal(v, origVal) {
			log.Fatal("results differ!")
		}
		fmt.Printf("  %2d threads: %8v  (%.1fx)\n", t, d.Round(time.Millisecond),
			origTime.Seconds()/d.Seconds())
	}
}
