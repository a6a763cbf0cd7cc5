// Command loadgen drives a running `asyncq -serve` front door over the
// wire protocol and reports the latency distribution, throughput, and the
// admission-control accounting (sheds, deadline misses, hung requests). It is
// net.RunLoad — the request-driven measurement the front-door, chaos,
// durability, tail-latency and reshard figures also run — over dialled
// connections for a duration; -op chooses the request LoadOptions.Next builds
// (a random point read of the load table, or an insert of the next unused id).
//
// Usage:
//
//	asyncq -serve -addr 127.0.0.1:7474 &
//	loadgen -addr 127.0.0.1:7474 -conns 64 -dur 5s                  # closed loop
//	loadgen -addr 127.0.0.1:7474 -conns 256 -rate 20000 -dur 5s -deadline 50ms   # open loop
//
// Closed loop (-rate 0) self-throttles to the server's capacity and
// measures best-case service latency. Open loop (-rate N) keeps offering
// load regardless of completions — the mode that exposes overload: with
// the offered rate above the admission budget, the report should show
// bounded p999 on admitted requests, a nonzero shed count, and zero hung
// connections. The exit code is net.LoadReport.Check's verdict: non-zero
// when a request hung or failed, the outcome counters do not account for
// every request sent, the percentiles are out of order, or retries exceeded
// -retry-budget. Sheds and deadline misses are reported, not failed on.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/net"
	"repro/internal/query"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7474", "front door address")
	conns := flag.Int("conns", 32, "concurrent connections")
	rate := flag.Float64("rate", 0, "open-loop offered load, requests/sec (0 = closed loop)")
	dur := flag.Duration("dur", 5*time.Second, "run duration")
	deadline := flag.Duration("deadline", 0, "per-request deadline (0 = none)")
	op := flag.String("op", "select", "workload: select (point reads) or insert (unique-key writes)")
	rows := flag.Int("rows", 10000, "key range of the server's load table (must match -serve -rows)")
	seed := flag.Int64("seed", 1, "argument-generator seed")
	retries := flag.Int("retries", 0, "max attempts per request (0 or 1 = no retries, the historical client)")
	backoff := flag.Duration("backoff", time.Millisecond, "base retry backoff (doubles per retry)")
	budget := flag.Int64("retry-budget", 0, "lifetime retry cap per connection (0 = unlimited)")
	flag.Parse()

	opts := net.LoadOptions{
		Addr:     *addr,
		Conns:    *conns,
		Rate:     *rate,
		Duration: *dur,
		Deadline: *deadline,
		Seed:     *seed,
		Client: net.ClientOptions{
			Retry: net.RetryPolicy{
				MaxAttempts: *retries,
				BaseBackoff: *backoff,
				Budget:      *budget,
			},
		},
	}
	switch *op {
	case "select":
		n := int64(*rows)
		opts.Next = func(r *rand.Rand) query.Request {
			return query.Req("point", "select val from load where id = ?", []any{r.Int63n(n) + 1})
		}
	case "insert":
		var next atomic.Int64
		next.Store(int64(*rows))
		opts.Next = func(*rand.Rand) query.Request {
			id := next.Add(1)
			return query.Req("ins", "insert into load values (?, ?)", []any{id, fmt.Sprintf("w%d", id)})
		}
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown -op %q (select|insert)\n", *op)
		os.Exit(2)
	}

	rep, err := net.RunLoad(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}

	fmt.Printf("loadgen: %s loop, %d conns", rep.Mode, rep.Conns)
	if rep.Mode == "open" {
		fmt.Printf(", offered %.0f req/s", rep.Rate)
	}
	fmt.Printf(", %s\n", dur)
	fmt.Printf("  sent %d  completed %d (%.0f req/s)  shed %d (%.1f%%)  deadlined %d  failed %d  hung %d\n",
		rep.Sent, rep.Completed, rep.ThroughputRPS,
		rep.Shed, 100*rep.ShedRate(), rep.Deadlined, rep.Failed, rep.Hung)
	fmt.Printf("  latency ms: p50 %.2f  p99 %.2f  p999 %.2f  mean %.2f  max %.2f\n",
		rep.P50Ms, rep.P99Ms, rep.P999Ms, rep.MeanMs, rep.MaxMs)
	fmt.Printf("  resilience: retries %d  reconnects %d", rep.Retries, rep.Reconnects)
	if rep.RetryBudget > 0 {
		fmt.Printf(" (budget %d/conn)", rep.RetryBudget)
	}
	fmt.Println()

	if err := rep.Check(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: FAIL:", err)
		os.Exit(1)
	}
}
