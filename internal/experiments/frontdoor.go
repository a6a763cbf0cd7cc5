package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

// frontdoorFixture is a listening front door over the full simulated stack
// (replica group, WAL, wire protocol, admission control) preloaded with the
// point-read table the load generator drives.
type frontdoorFixture struct {
	g  *replica.Group
	fd *net.Server
}

// startFrontdoor brings up the fixture: a group built from opts, loaded,
// warmed and pointed at reg, behind a front door listening on loopback.
func (h *Harness) startFrontdoor(rows int, opts replica.Options, reg *obs.Registry, so net.ServerOptions) (*frontdoorFixture, error) {
	g := replica.NewGroup(server.SYS1(), h.Scale, opts)
	if err := apps.LoadPointTable(g.Copies(), "load", rows); err != nil {
		g.Close()
		return nil, err
	}
	g.Warm()
	g.SetMetrics(reg)

	fd := net.NewServer(g, so)
	if err := fd.Listen("127.0.0.1:0"); err != nil {
		g.Close()
		return nil, err
	}
	return &frontdoorFixture{g: g, fd: fd}, nil
}

func (f *frontdoorFixture) Close() {
	f.fd.Close()
	f.g.Close()
}

// addLoadPoint appends one load run at x to a request-driven figure's series:
// its client-observed p50, p99 and p999 to the first three, extra to the
// fourth.
func addLoadPoint(series []Series, x int, rep net.LoadReport, extra float64) {
	for i, y := range []float64{rep.P50Ms, rep.P99Ms, rep.P999Ms, extra} {
		series[i].Points = append(series[i].Points, Point{X: x, Y: y})
	}
}

func (f *frontdoorFixture) load(rows int) net.LoadOptions {
	n := int64(rows)
	return net.LoadOptions{
		Addr: f.fd.Addr(),
		Next: func(r *rand.Rand) query.Request {
			return query.Req("point", "select val from load where id = ?", []any{r.Int63n(n) + 1})
		},
		Seed: 1,
	}
}

// FigFrontdoor — client-observed latency percentiles and shed rate vs
// offered load through the network front door. The server's capacity is
// first measured closed-loop with exactly as many connections as the
// admission budget (every slot busy, nothing shed); the sweep then offers
// open-loop load from half that capacity up to 2×. Below capacity the
// percentiles sit at service latency and nothing sheds; past capacity the
// admitted requests' p999 stays bounded — the queue the budget refuses to
// build is visible as the shed series instead of as unbounded latency.
// Unlike the other figures this one measures wall-clock milliseconds
// through a real TCP socket, not rescaled simulated time: the wire, the
// admission gate, and the kernel scheduler are the objects under test.
func (h *Harness) FigFrontdoor() (*Figure, error) {
	const (
		rows     = 5000
		inflight = 16
	)
	dur := 3 * time.Second
	if h.Quick {
		dur = time.Second
	}
	percents := h.pick([]int{50, 75, 100, 125, 150, 200}, []int{50, 100, 200})

	fx, err := h.startFrontdoor(rows, replica.Options{Replicas: 1, Durability: wal.Group},
		obs.NewRegistry(), net.ServerOptions{MaxInflight: inflight})
	if err != nil {
		return nil, fmt.Errorf("frontdoor: %w", err)
	}
	defer fx.Close()

	// Capacity probe: closed loop with conns == budget keeps every
	// admission slot occupied without ever exceeding it, so the completed
	// rate is the service capacity the sweep is expressed against.
	cap0 := fx.load(rows)
	cap0.Conns = inflight
	cap0.Duration = dur
	capRep, err := net.RunLoad(cap0)
	if err != nil {
		return nil, fmt.Errorf("frontdoor capacity probe: %w", err)
	}
	if capRep.Shed > 0 || capRep.Hung > 0 || capRep.Failed > 0 {
		return nil, fmt.Errorf("frontdoor capacity probe not clean: shed=%d hung=%d failed=%d",
			capRep.Shed, capRep.Hung, capRep.Failed)
	}
	capacity := capRep.ThroughputRPS
	if capacity <= 0 {
		return nil, fmt.Errorf("frontdoor capacity probe measured no throughput")
	}

	f := &Figure{
		ID:     "Front door",
		Title:  "Front-door latency percentiles and shed rate vs offered load",
		XLabel: "Offered load (% of closed-loop capacity)",
		YLabel: "Latency (ms, wall) / shed (%)",
	}
	series := []Series{
		{Label: "p50 ms"}, {Label: "p99 ms"}, {Label: "p999 ms"}, {Label: "shed %"},
	}
	var top net.LoadReport // the last (highest) offered load's report
	for _, pct := range percents {
		opts := fx.load(rows)
		// The connection pool must exceed the admission budget or the pool,
		// not the budget, becomes the limiter and nothing ever sheds.
		opts.Conns = 4 * inflight
		opts.Rate = capacity * float64(pct) / 100
		opts.Duration = dur
		opts.Deadline = 250 * time.Millisecond
		rep, err := net.RunLoad(opts)
		if err != nil {
			return nil, fmt.Errorf("frontdoor %d%%: %w", pct, err)
		}
		if rep.Hung > 0 || rep.Failed > 0 {
			return nil, fmt.Errorf("frontdoor %d%%: %d hung, %d failed requests",
				pct, rep.Hung, rep.Failed)
		}
		top = rep
		addLoadPoint(series, pct, rep, 100*rep.ShedRate())
	}
	// The acceptance property the figure exists to demonstrate: offered
	// load at 2× the budgeted capacity is refused at the door, not queued
	// into the latency tail.
	topPct := percents[len(percents)-1]
	if topPct >= 200 && top.Shed == 0 {
		return nil, fmt.Errorf("frontdoor: no sheds at %d%% offered load (%0.f req/s over capacity %.0f)",
			topPct, top.Rate, capacity)
	}
	f.Series = series
	f.Notes = append(f.Notes,
		fmt.Sprintf("Database: %s, admission budget %d, closed-loop capacity %.0f req/s (%d conns), open-loop pool %d conns, deadline 250ms",
			server.SYS1().Name, inflight, capacity, inflight, 4*inflight),
		fmt.Sprintf("At %d%%: sent %d, completed %d, shed %d (%.1f%%), deadlined %d, hung %d",
			topPct, top.Sent, top.Completed, top.Shed, 100*top.ShedRate(), top.Deadlined, top.Hung),
		"Latencies are wall-clock through a real TCP socket (not rescaled simulated time)")
	return f, nil
}
