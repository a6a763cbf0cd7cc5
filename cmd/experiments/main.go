// Command experiments regenerates the paper's evaluation artifacts
// (Figures 8–15 and Table I) on the simulated database substrate.
//
// Usage:
//
//	experiments [-scale 0.2] [-quick] [-seed N] [-durability off|group|strict]
//	            [-fig 8|..|15|batch-category|batch-rubis|shard-scale|replica-scale|durability|tail-latency|frontdoor|chaos|reshard|all]
//	            [-table1] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With no selection flags, everything runs. The exit code is non-zero when
// any figure's own assertions fail: every measurement compares transformed
// against blocking results, and the scale-out, front-door, chaos and reshard
// figures also assert their acceptance properties. CI runs
// `experiments -quick -scale 0.02` as the figure code's gate; the full-size
// series are this command without -quick. Times are reported in simulated
// seconds (wall time divided by -scale), so results are comparable across
// scale settings. -seed (or the ASYNCQ_SEED environment variable) offsets
// the per-run workload argument generator so a reported anomaly reproduces
// deterministically; 0 keeps the historical fixed seeding. The profile
// flags write pprof CPU/heap profiles covering the selected experiments, so
// perf work can attach evidence without ad-hoc patches: go tool pprof
// cpu.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/apps"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	scale := flag.Float64("scale", 0.2, "wall-clock scale for simulated latencies (1.0 = full)")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
	fig := flag.String("fig", "", "figure to run: 8..15, batch-category, batch-rubis, shard-scale, replica-scale, durability, tail-latency, frontdoor, chaos, reshard or 'all' (default: all)")
	table1 := flag.Bool("table1", false, "run only Table I")
	seed := flag.Int64("seed", 0, "workload seed (0: ASYNCQ_SEED env, else the historical fixed seeding)")
	durability := flag.String("durability", "", "restrict the durability figure's fsync-policy sweep to one WAL mode (off|group|strict; empty = all)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to `file`")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to `file`")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live heap, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
			}
		}()
	}

	h := experiments.NewHarness()
	h.Scale = *scale
	h.Quick = *quick
	h.Seed = apps.SeedFromEnv(*seed)
	h.Durability = *durability
	if h.Seed != 0 {
		// Logged up front so a failing run's seed is always recoverable.
		fmt.Fprintf(os.Stderr, "experiments: workload seed %d (rerun with -seed %d)\n", h.Seed, h.Seed)
	}
	defer h.Close()

	if *table1 {
		fmt.Print(experiments.RenderTable1(experiments.Table1()))
		return 0
	}

	// Every figure in the order `all` runs it: the program-driven sweeps over
	// Harness.Measure first, then the figures that time wall-clock requests.
	figs := []struct {
		id string
		fn func() (*experiments.Figure, error)
	}{
		{"8", h.Fig08}, {"9", h.Fig09}, {"10", h.Fig10}, {"11", h.Fig11},
		{"12", h.Fig12}, {"13", h.Fig13}, {"14", h.Fig14}, {"15", h.Fig15},
		{"batch-category", h.FigBatchCategory}, {"batch-rubis", h.FigBatchRUBiS},
		{"shard-scale", h.FigShardScale}, {"replica-scale", h.FigReplicaScale},
		{"durability", h.FigDurability}, {"tail-latency", h.FigTailLatency},
		{"frontdoor", h.FigFrontdoor}, {"chaos", h.FigChaos},
		{"reshard", h.FigReshard},
	}
	all := *fig == "" || *fig == "all"
	ran := false
	for _, f := range figs {
		if !all && f.id != *fig {
			continue
		}
		if all && f.id == "durability" {
			// From here on the figures build their own backends and time
			// wall-clock requests: release the loaded servers and routers the
			// harness cached for the sweeps above, or the collector's work on
			// that retained heap lands in their numbers.
			h.Close()
		}
		label := f.id
		if len(label) <= 2 { // numeric paper figures keep their "Fig N" labels
			label = "Fig " + label
		}
		out, err := f.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", label, err)
			return 1
		}
		fmt.Println(experiments.Render(out))
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: unknown figure %q\n", *fig)
		return 2
	}
	if all {
		fmt.Print(experiments.RenderTable1(experiments.Table1()))
	}
	return 0
}
