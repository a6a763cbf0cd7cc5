package experiments

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

// FigChaos — client-observed latency percentiles and goodput vs injected
// fault rate. A closed-loop read workload drives the resilient stack —
// retrying TCP client, per-replica circuit breakers — while the connection
// faults (reset, torn frame, slow link) and replica crashes fire at the
// swept per-decision rate. The fsync faults (error, stall) are armed at the
// same rate but never fire: the workload is read-only, so the log never
// syncs. TestChaosDifferential, whose app workloads write, is the suite that
// exercises WAL faults. The property under test is graceful degradation: as
// the fault rate climbs to 10%, goodput sags and the tail stretches (retry
// backoff, failover), but every request completes — zero hung, zero failed
// — and writes are never manufactured (the client retries only what is
// provably safe). The resilience counters make the absorbed faults visible:
// retries, reconnects, breaker trips.
func (h *Harness) FigChaos() (*Figure, error) {
	const (
		rows  = 5000
		conns = 8
		seed  = 20110411
	)
	dur := 2 * time.Second
	if h.Quick {
		dur = time.Second
	}
	percents := h.pick([]int{0, 2, 5, 10}, []int{0, 10})

	f := &Figure{
		ID:     "Chaos",
		Title:  "Resilient front-door latency and goodput vs injected fault rate",
		XLabel: "Per-decision fault rate (%)",
		YLabel: "Latency (ms, wall) / goodput (req/s)",
	}
	series := []Series{
		{Label: "p50 ms"}, {Label: "p99 ms"}, {Label: "p999 ms"}, {Label: "goodput req/s"},
	}
	// The last (highest) fault rate's loadgen report, resilience accounting,
	// WAL sync errors and fired-fault counts.
	var (
		top         net.LoadReport
		topRes      replica.ResilienceStats
		topSyncErrs int64
		topFired    map[string]int64
	)
	for _, pct := range percents {
		p := float64(pct) / 100
		// A fresh, deterministically seeded injector per point: client-side
		// connection faults and backend disk/replica faults all at rate p.
		inj := fault.New(seed+int64(pct)).
			Rate(fault.ConnReset, p).
			Rate(fault.TornWrite, p).
			Rate(fault.SlowLink, p).Delay(fault.SlowLink, 500*time.Microsecond).
			Rate(fault.SyncErr, p).
			Rate(fault.SyncStall, p).Delay(fault.SyncStall, 200*time.Microsecond).
			Rate(fault.ReplicaCrash, p)

		// The resilience layer armed: one shard, a 2-replica group whose log
		// store and replica reads the injector faults, with circuit breakers.
		fx, err := Serve("127.0.0.1:0", h.Scale, 1, replica.Options{
			Replicas:   2,
			Durability: wal.Group,
			Breaker:    2 * time.Millisecond,
			Fault:      inj,
		}, rows, net.ServerOptions{Metrics: obs.NewRegistry()})
		if err != nil {
			return nil, fmt.Errorf("chaos %d%%: %w", pct, err)
		}
		opts := fx.load(rows)
		opts.Conns = conns
		opts.Duration = dur
		opts.Client = net.ClientOptions{
			Retry: net.RetryPolicy{
				MaxAttempts: 8,
				BaseBackoff: 200 * time.Microsecond,
			},
			Fault: inj,
		}
		rep, err := net.RunLoad(opts)
		if err != nil {
			fx.Close()
			return nil, fmt.Errorf("chaos %d%%: %w", pct, err)
		}
		g := fx.Router.Groups()[0]
		topRes = g.Resilience()
		rep.BreakerTrips = topRes.BreakerTrips
		topSyncErrs = g.WALStats().SyncErrors
		topFired = inj.Counts()
		fx.Close()

		// Graceful degradation means every request still answers: a hang or
		// a surfaced transport error at any fault rate fails the figure.
		if rep.Hung > 0 || rep.Failed > 0 {
			return nil, fmt.Errorf("chaos %d%%: %d hung, %d failed requests (seed %d)",
				pct, rep.Hung, rep.Failed, seed+int64(pct))
		}
		if pct == 0 && (rep.Retries > 0 || rep.BreakerTrips > 0) {
			return nil, fmt.Errorf("chaos 0%%: phantom faults: %d retries, %d trips",
				rep.Retries, rep.BreakerTrips)
		}
		top = rep
		addLoadPoint(series, pct, rep, rep.ThroughputRPS)
	}
	// At the top fault rate the machinery must visibly work: transport
	// faults were retried and replica crashes tripped breakers.
	topPct := percents[len(percents)-1]
	if topPct >= 10 {
		if top.Retries == 0 {
			return nil, fmt.Errorf("chaos: no retries at %d%% fault rate", topPct)
		}
		if top.BreakerTrips == 0 {
			return nil, fmt.Errorf("chaos: no breaker trips at %d%% fault rate", topPct)
		}
		if top.Completed == 0 {
			return nil, fmt.Errorf("chaos: nothing completed at %d%% fault rate", topPct)
		}
	}
	f.Series = series
	f.Notes = append(f.Notes,
		fmt.Sprintf("Database: %s, 2 replicas + breaker (2ms cooldown), closed loop %d conns, seed %d",
			server.SYS1().Name, conns, seed),
		fmt.Sprintf("At %d%%: completed %d, retries %d, reconnects %d, breaker trips %d, probes %d, wal sync errors %d",
			topPct, top.Completed, top.Retries, top.Reconnects,
			topRes.BreakerTrips, topRes.BreakerProbes, topSyncErrs),
		fmt.Sprintf("Faults fired at %d%%: %v (the workload is read-only, so sync-err and sync-stall never fire; TestChaosDifferential exercises WAL faults)",
			topPct, topFired),
		"Every request completes at every fault rate (zero hung, zero failed): degradation is latency and goodput, never correctness")
	return f, nil
}
