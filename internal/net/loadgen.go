package net

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
)

// LoadOptions configure one load-generation run against a front door, or
// against executors the caller already holds.
type LoadOptions struct {
	// Addr is the server address to drive.
	Addr string
	// Target, when set, is driven in place of dialled connections: the
	// in-process figures measure a replica group or a shard router with the
	// driver, the accounting and the percentiles of a run over the wire.
	Target query.Executor
	// Conns is the number of concurrent connections (or workers sharing
	// Target), each with one outstanding request at a time (the closed-loop
	// worker count; in open loop the same connections share the paced
	// request stream).
	Conns int
	// Rate, when positive, switches to open-loop generation: requests are
	// issued at this aggregate rate (per second) regardless of completions,
	// which is what exposes overload — a closed loop self-throttles to the
	// server's capacity, an open loop keeps offering load the way real
	// clients do.
	Rate float64
	// Duration bounds the run.
	Duration time.Duration
	// Requests, when positive, bounds the run by work instead: it ends once
	// that many requests have been issued, and the report's Duration and
	// ThroughputRPS are over the measured elapsed time.
	Requests int64
	// Deadline is the per-request deadline (0 = none).
	Deadline time.Duration
	// Next builds each request; r is the issuing worker's generator. It is
	// called from every worker at once.
	Next func(r *rand.Rand) query.Request
	// Seed feeds the per-worker generators.
	Seed int64
	// Client configures each connection's resilience: retry policy and
	// (chaos figures, tests) fault injection. The zero value is the
	// historical client — no retries, transport errors surface as failures.
	Client ClientOptions
}

// LoadReport is the result of one load run — the front-door triple the
// figure plots (p50/p99/p999), plus the shed and error accounting Check
// gates on.
type LoadReport struct {
	Mode     string // "closed" or "open"
	Conns    int
	Rate     float64 // offered rate, open loop only
	Duration float64 // seconds

	Sent      int64
	Completed int64 // successful responses
	Shed      int64 // query.ErrOverloaded
	Deadlined int64 // query.ErrDeadlineExceeded
	Failed    int64 // any other error
	Hung      int64 // requests never answered by run end
	Err       error // the first failed request's error

	ThroughputRPS float64

	// Resilience accounting. Retries/Reconnects aggregate over the pool's
	// clients; RetryBudget echoes the per-client lifetime cap (0 =
	// unlimited) so Check can hold retries to it. BreakerTrips is a
	// server-side counter the caller fills in when it owns the backend (see
	// the chaos figure); a plain remote loadgen run leaves it zero.
	Retries      int64
	Reconnects   int64
	RetryBudget  int64
	BreakerTrips int64

	// Latency percentiles over successful requests, milliseconds.
	P50Ms  float64
	P99Ms  float64
	P999Ms float64
	MeanMs float64
	MaxMs  float64
}

// ShedRate is the fraction of sent requests shed by admission control.
func (r LoadReport) ShedRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Sent)
}

// Check reports the first invariant of a healthy run that the report
// breaks: work was sent, the per-outcome counters account for every sent
// request, nothing hung or failed, the percentiles are ordered, and retries
// stayed inside the budget. Sheds and deadline misses are not failures —
// they are what admission control is for. cmd/loadgen exits on it.
func (r LoadReport) Check() error {
	if r.Sent <= 0 {
		return fmt.Errorf("load report: no requests sent")
	}
	if sum := r.Completed + r.Shed + r.Deadlined + r.Failed + r.Hung; sum != r.Sent {
		return fmt.Errorf("load report: outcomes (%d completed + %d shed + %d deadlined + %d failed + %d hung = %d) do not account for %d sent",
			r.Completed, r.Shed, r.Deadlined, r.Failed, r.Hung, sum, r.Sent)
	}
	if r.Hung > 0 {
		return fmt.Errorf("load report: %d hung requests (never answered)", r.Hung)
	}
	if r.Failed > 0 {
		return fmt.Errorf("load report: %d failed requests, first: %w", r.Failed, r.Err)
	}
	if r.Completed > 0 {
		if r.P50Ms <= 0 {
			return fmt.Errorf("load report: completed %d requests but p50 is %v ms", r.Completed, r.P50Ms)
		}
		if r.P50Ms > r.P99Ms || r.P99Ms > r.P999Ms || r.P999Ms > r.MaxMs {
			return fmt.Errorf("load report: percentiles out of order: p50 %v > p99 %v > p999 %v > max %v (ms)",
				r.P50Ms, r.P99Ms, r.P999Ms, r.MaxMs)
		}
	}
	if r.RetryBudget > 0 && r.Retries > r.RetryBudget*int64(r.Conns) {
		return fmt.Errorf("load report: %d retries exceed the budget (%d per connection × %d conns)",
			r.Retries, r.RetryBudget, r.Conns)
	}
	return nil
}

// hangGrace is how long RunLoad waits on requests in flight with none
// answered before it reports them hung (a variable so tests can shorten it).
var hangGrace = 5 * time.Second

// RunLoad drives a front door over Conns connections (or Target, in place,
// from Conns workers) for Duration or for Requests requests, and reports the
// latency distribution and shed accounting. Closed loop (Rate == 0): every
// worker issues its next request as soon as the previous one answers. Open loop
// (Rate > 0): each worker issues requests on its own schedule at
// Rate/Conns, staggered so aggregate arrivals are smooth, and keeps
// (approximately) that schedule regardless of completions — the pool must
// be sized so that under the tested overload the admission budget and
// deadline, not the pool, are the limit.
func RunLoad(opts LoadOptions) (LoadReport, error) {
	if opts.Next == nil {
		return LoadReport{}, errors.New("loadgen: LoadOptions.Next is nil: no request to issue")
	}
	if opts.Conns <= 0 {
		opts.Conns = 1
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	// The workers' executors: the caller's Target, or connections dialled
	// here — those are closed here and are the retry accounting's source.
	targets := make([]query.Executor, opts.Conns)
	var clients []*Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := range targets {
		if targets[i] = opts.Target; opts.Target != nil {
			continue
		}
		c, err := DialOptions(opts.Addr, opts.Client)
		if err != nil {
			return LoadReport{}, fmt.Errorf("loadgen: dial conn %d: %w", i, err)
		}
		clients, targets[i] = append(clients, c), c
	}
	rep := LoadReport{Mode: "closed", Conns: opts.Conns}
	if opts.Rate > 0 {
		rep.Mode = "open"
		rep.Rate = opts.Rate
	}

	var issued, sent, completed, shed, deadlined, failed, inflight atomic.Int64
	var firstErr atomic.Pointer[error]
	hist := obs.NewRegistry().Histogram("loadgen.latency")
	began := time.Now()
	stop := began.Add(opts.Duration)
	// more reports whether a worker may issue another request.
	more := func() bool {
		if opts.Requests > 0 {
			return issued.Add(1) <= opts.Requests
		}
		return time.Now().Before(stop)
	}

	oneRequest := func(t query.Executor, rng *rand.Rand) {
		req := opts.Next(rng)
		if opts.Deadline > 0 {
			req.Deadline = query.After(opts.Deadline)
		}
		sent.Add(1)
		inflight.Add(1)
		start := time.Now()
		res := t.Exec(req)
		lat := time.Since(start)
		inflight.Add(-1)
		switch {
		case res.Err == nil:
			completed.Add(1)
			hist.RecordDuration(lat)
		case errors.Is(res.Err, query.ErrOverloaded):
			shed.Add(1)
		case errors.Is(res.Err, query.ErrDeadlineExceeded):
			deadlined.Add(1)
		default:
			failed.Add(1)
			err := res.Err // a copy, so only a failure's error escapes
			firstErr.CompareAndSwap(nil, &err)
		}
	}

	// Closed loop (Rate == 0, interval 0): every worker issues back to back.
	// Open loop: each connection paces itself at Rate/Conns with start
	// offsets staggered across one interval, so aggregate arrivals are
	// smooth rather than synchronized bursts (a shared ticker bunches
	// arrivals into instants, which saturates any admission budget at a
	// fraction of the true average rate). A connection whose previous
	// request ran long fires back-to-back to restore its average — the
	// open-loop property — but arrivals more than a burst window behind
	// schedule balk: that is offered load the server never saw, and the
	// shed/deadline counters on issued requests carry the overload story.
	var interval time.Duration
	if opts.Rate > 0 {
		interval = max(time.Duration(float64(opts.Conns)*float64(time.Second)/opts.Rate), time.Nanosecond)
	}
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t query.Executor) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(i)))
			next := time.Now().Add(interval * time.Duration(i) / time.Duration(opts.Conns))
			for {
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				if !more() {
					return
				}
				oneRequest(t, rng)
				next = next.Add(interval)
				if time.Since(next) > 4*interval {
					next = time.Now()
				}
			}
		}(i, t)
	}

	// Workers exit on their own once more() says stop. A hang is a request in
	// flight while none has been answered for the grace (plus the deadline,
	// by which every issued request must have answered): the clock restarts
	// on every outcome, so neither a long Duration nor a long Requests run is
	// cut short, and a stuck connection is exactly what the report exposes.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	grace := hangGrace + max(opts.Deadline, 0)
	outcomes := func() int64 { return completed.Load() + shed.Load() + deadlined.Load() + failed.Load() }
	seen, seenAt := outcomes(), time.Now()
	tick := time.NewTicker(grace / 8)
	defer tick.Stop()
wait:
	for {
		select {
		case <-done:
			break wait
		case <-tick.C:
		}
		if n := outcomes(); n != seen || inflight.Load() == 0 {
			seen, seenAt = n, time.Now()
		} else if time.Since(seenAt) >= grace {
			rep.Hung = inflight.Load()
			break wait
		}
	}
	elapsed := opts.Duration
	if opts.Requests > 0 {
		elapsed = time.Since(began)
	}

	rep.Duration = elapsed.Seconds()
	rep.Sent = sent.Load()
	rep.Completed = completed.Load()
	rep.Shed = shed.Load()
	rep.Deadlined = deadlined.Load()
	rep.Failed = failed.Load()
	if err := firstErr.Load(); err != nil {
		rep.Err = *err
	}
	rep.RetryBudget = opts.Client.Retry.Budget
	for _, c := range clients {
		rep.Retries += c.Retries()
		rep.Reconnects += c.Reconnects()
	}
	rep.ThroughputRPS = float64(rep.Completed) / rep.Duration
	snap := hist.Snapshot()
	if snap.Count > 0 {
		ms := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
		rep.P50Ms = ms(snap.Quantile(0.50))
		rep.P99Ms = ms(snap.Quantile(0.99))
		rep.P999Ms = ms(snap.Quantile(0.999))
		rep.MeanMs = ms(int64(snap.Mean()))
		rep.MaxMs = ms(snap.Max)
	}
	return rep, nil
}
