// Command bench is the repository's benchmark: five fixed-work workloads
// driven over loopback TCP through the whole stack (front door -> shard
// router -> replica group -> WAL -> simulated server), every result
// checked against an oracle computed from the generator. See README.md.
//
//	go run ./bench -workload point -seed 1 -seconds 10 -trace 0
//	go run ./bench                       # all five, one child process each
//	go run ./bench -trace 1              # per-layer metrics + bench/out/trace-*.json
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

const (
	defaultSeed    = 20110411 // ICDE 2011, as apps.SeededRand
	defaultSeconds = 10
	outDir         = "bench/out"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: point, batch, mixed, scatter, program, or all (one child process each)")
		seed    = flag.Uint64("seed", defaultSeed, "the only input to the generators")
		seconds = flag.Float64("seconds", defaultSeconds, "run budget: the fixed op count is the one that took this long on the reference box")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, no shim constructed; 1: traced pass, per-layer metrics")
		short   = flag.Bool("short", false, "smoke run: a tenth of the op counts")
		jsonOut = flag.String("json", "", "append this run's results to a result-set file (the input of -compare)")
		compare = flag.Bool("compare", false, "compare two result-set files: -compare A.json B.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result-set files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if *short {
		*seconds /= 10
	}

	if *name == "all" {
		if err := runAll(*seed, *seconds, *trace, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	note := func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }
	run := runEndToEnd
	if *trace == 1 {
		run = runTraced
	}
	res, err := run(w, *seed, *seconds, note)
	if err != nil {
		fatal(err)
	}
	printMetrics(res)
	if *jsonOut != "" {
		if err := appendResult(*jsonOut, runRecord{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Result: res}); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printMetrics lists every metric by name with its unit.
func printMetrics(res runResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

// runAll runs every workload in its own child process (a re-exec of this
// binary), so each starts from a fresh heap and its peak RSS and CPU time
// are its own.
func runAll(seed uint64, seconds float64, trace int, jsonOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	for _, w := range workloads {
		args := []string{
			"-workload", w.name,
			"-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace),
		}
		if jsonOut != "" {
			args = append(args, "-json", jsonOut)
		}
		fmt.Printf("== %s ==\n", w.name)
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.name, err)
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("at least one workload failed")
	}
	return nil
}
