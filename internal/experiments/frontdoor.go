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
	"repro/internal/shard"
	"repro/internal/wal"
)

// Served is the served stack: a front door listening over a shard router
// whose shards are replica groups, holding the point-read `load` table the
// load generator drives, sharded on id. `asyncq -serve`, the front-door and
// chaos figures and their tests all run this one posture.
type Served struct {
	Router *shard.Router
	Door   *net.Server
}

// Serve brings up the served stack on addr: a reference server filled by
// apps.LoadPointTable, partitioned over `shards` backends built from group
// (replica groups when group.Replicas > 0; scale is their simulated-time
// factor), warmed, its metrics registered on the door's registry
// (so.Metrics, when set), behind a front door built from so.
func Serve(addr string, scale float64, shards int, group replica.Options, rows int, so net.ServerOptions) (*Served, error) {
	ref := server.New(server.SYS1(), 0)
	defer ref.Close()
	if err := apps.LoadPointTable(ref, "load", rows); err != nil {
		return nil, err
	}
	r := shard.New(server.SYS1(), scale, shard.Options{
		Shards: shards,
		Keys:   map[string]string{"load": "id"},
		Group:  group,
	})
	if err := r.LoadFrom(ref); err != nil {
		r.Close()
		return nil, err
	}
	r.Warm()
	if so.Metrics != nil {
		r.RegisterMetrics(so.Metrics, "")
	}
	fd := net.NewServer(r, so)
	if err := fd.Listen(addr); err != nil {
		r.Close()
		return nil, err
	}
	return &Served{Router: r, Door: fd}, nil
}

// Close shuts the door, then the cluster behind it.
func (s *Served) Close() {
	s.Door.Close()
	s.Router.Close()
}

// addLoadPoint appends one load run at x to a request-driven figure's series:
// its client-observed p50, p99 and p999 to the first three, extra to the
// fourth.
func addLoadPoint(series []Series, x int, rep net.LoadReport, extra float64) {
	for i, y := range []float64{rep.P50Ms, rep.P99Ms, rep.P999Ms, extra} {
		series[i].Points = append(series[i].Points, Point{X: x, Y: y})
	}
}

// load is the point-read workload over the served table's rows.
func (s *Served) load(rows int) net.LoadOptions {
	n := int64(rows)
	return net.LoadOptions{
		Addr: s.Door.Addr(),
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

	fx, err := Serve("127.0.0.1:0", h.Scale, 1, replica.Options{Replicas: 1, Durability: wal.Group}, rows,
		net.ServerOptions{MaxInflight: inflight, Metrics: obs.NewRegistry()})
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
