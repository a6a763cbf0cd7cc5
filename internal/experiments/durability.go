package experiments

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/net"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

// stormRun is one insert storm's record: the load report, its times rescaled
// to simulated time (wall divided by Scale), and the WAL counters that say
// how the commit mode earned its numbers — strict pays one fsync per record,
// group shares fsyncs across concurrent commits, off acknowledges before any.
type stormRun struct {
	net.LoadReport
	Commit wal.Mode // the WAL mode the storm ran under
	WAL    wal.Stats
}

// storm issues `inserts` acknowledged single-row inserts from `threads`
// concurrent closed-loop clients, ids 1..inserts drawn from one counter,
// against a one-replica synchronous group whose WAL runs in mode, holding an
// empty, warmed events(id, val) table indexed on id. Every acknowledgement
// honors the mode's contract — strict and group return only after the
// record's fsync, off returns immediately — so the throughput spread is
// exactly the price of the durability guarantee, and the percentiles are the
// per-client view of the same tradeoff.
func (h *Harness) storm(prof server.Profile, mode wal.Mode, threads, inserts int) (stormRun, error) {
	// The seek-only disk model underprices fsync: a real log write also
	// waits for the platter to bring the target sector under the head
	// (~4ms on the paper-era drives), and that rotational settle is the
	// cost group commit exists to amortize. Charge it here so the policy
	// spread is the device's, not the model's; every other figure keeps
	// the settle-free device.
	prof.Disk.WriteSettle = 4 * time.Millisecond
	g := replica.NewGroup(prof, h.Scale, replica.Options{Replicas: 1, Durability: mode})
	defer g.Close()
	for _, c := range g.Copies() {
		if err := apps.LoadPointTable(c, "events", 0); err != nil {
			return stormRun{}, err
		}
	}
	g.Warm()

	var next atomic.Int64
	rep, err := net.RunLoad(net.LoadOptions{
		Target:   g,
		Conns:    threads,
		Requests: int64(inserts),
		Next: func(*rand.Rand) query.Request {
			id := next.Add(1)
			return query.Req("storm", "insert into events values (?, ?)", []any{id, fmt.Sprintf("e%d", id)})
		},
	})
	if err == nil {
		err = rep.Check()
	}
	if err != nil {
		return stormRun{}, err
	}
	if h.Scale > 0 {
		rep.Duration /= h.Scale
		rep.ThroughputRPS *= h.Scale
		for _, ms := range []*float64{&rep.P50Ms, &rep.P99Ms, &rep.P999Ms, &rep.MeanMs, &rep.MaxMs} {
			*ms /= h.Scale
		}
	}
	return stormRun{LoadReport: rep, Commit: mode, WAL: g.WALStats()}, nil
}

// sweepStorm runs the storm at every point of the durability and tail-latency
// figures' shared grid — the three commit modes (or only Harness.Durability
// when set) × client threads — and returns one row per mode holding the best
// of three runs by score at each thread count (a run's Conns), with the
// grid's note.
func (h *Harness) sweepStorm(score func(stormRun) float64) (rows [][]stormRun, note string, err error) {
	modes := []wal.Mode{wal.Off, wal.Group, wal.Strict}
	if h.Durability != "" {
		m, err := wal.ParseMode(h.Durability)
		if err != nil {
			return nil, "", err
		}
		modes = []wal.Mode{m}
	}
	inserts := h.iters(1200, 200)
	for _, mode := range modes {
		var row []stormRun
		for _, th := range h.pick([]int{1, 2, 5, 10, 20, 30}, []int{1, 5, 10}) {
			best, err := BestOf(3, score, func() (stormRun, error) {
				return h.storm(server.SYS1(), mode, th, inserts)
			})
			if err != nil {
				return nil, "", fmt.Errorf("%s threads=%d: %w", mode, th, err)
			}
			row = append(row, best)
		}
		rows = append(rows, row)
	}
	return rows, fmt.Sprintf("Database: %s, Inserts: %d, Replicas: 1 (sync)", server.SYS1().Name, inserts), nil
}

// stormSeries plots y of each run in one mode's row against its threads.
func stormSeries(label string, row []stormRun, y func(stormRun) float64) Series {
	s := Series{Label: label}
	for _, r := range row {
		s.Points = append(s.Points, Point{X: r.Conns, Y: y(r)})
	}
	return s
}

// FigDurability — acknowledged insert throughput vs fsync policy as client
// concurrency grows (the durability experiment beyond the paper: group
// commit is the write-side sibling of the paper's batched submission — one
// disk round trip amortized over every commit that arrived while the
// previous fsync was in flight). Expected shape: `strict` pays one WAL write
// per insert and stays flat; `group` starts at strict's cost and converges
// toward `off` as concurrency gives each fsync more passengers; `off` prices
// the guarantee-free upper bound.
func (h *Harness) FigDurability() (*Figure, error) {
	throughput := func(r stormRun) float64 { return r.ThroughputRPS }
	rows, note, err := h.sweepStorm(throughput)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "Durability A",
		Title:  "Per-shard WAL: acknowledged insert throughput vs fsync policy",
		XLabel: "Number of client threads",
		YLabel: "Throughput (inserts/sec)",
		Notes:  []string{note},
	}
	for _, row := range rows {
		f.Series = append(f.Series, stormSeries("Durability: "+row[0].Commit.String(), row, throughput))
		if last := row[len(row)-1]; last.Commit == wal.Group {
			f.Notes = append(f.Notes,
				fmt.Sprintf("Group commit at %d threads: %d fsyncs for %d inserts (%.1f records/fsync)",
					last.Conns, last.WAL.Syncs, last.Completed, last.WAL.AvgGroup()))
		}
	}
	return f, nil
}

// FigTailLatency — acknowledged insert latency percentiles vs client threads
// across WAL fsync policies. The durability figure's throughput curves show
// the averages; this figure shows what they hide: under `strict` the whole
// distribution shifts up by one fsync, under `group` p50 collapses toward
// `off` while p999 keeps paying for the fsyncs a request occasionally
// leads, and queueing at high concurrency stretches every tail. Of three
// repetitions the lowest p99 wins: wall noise only inflates the tail, so the
// best repetition is the least noisy.
func (h *Harness) FigTailLatency() (*Figure, error) {
	rows, note, err := h.sweepStorm(func(r stormRun) float64 { return -r.P99Ms })
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "Tail latency",
		Title:  "Acknowledged insert latency percentiles vs fsync policy",
		XLabel: "Number of client threads",
		YLabel: "Latency (ms, simulated)",
		Notes:  []string{note + "; latencies are client-observed per call"},
	}
	for _, row := range rows {
		mode := row[0].Commit.String()
		f.Series = append(f.Series,
			stormSeries(mode+" p50", row, func(r stormRun) float64 { return r.P50Ms }),
			stormSeries(mode+" p99", row, func(r stormRun) float64 { return r.P99Ms }),
			stormSeries(mode+" p999", row, func(r stormRun) float64 { return r.P999Ms }))
	}
	return f, nil
}
