package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/ir"
)

const (
	// setupRepeats is how many times a run builds the stack: setup_s is the
	// median, because a single ~0.5 s set-up is the noisiest number a run
	// makes.
	setupRepeats = 5
	// setupBursts calibration bursts on either side of every build.
	setupBursts = 4
	// segmentsPer15s cuts the timed phase into ≈ 50 ms segments with one
	// calibration burst between neighbours (see calib.go).
	segmentsPer15s = 300
)

// counters is the process- and stack-wide state sampled immediately before
// and after the timed phase.
type counters struct {
	mallocs, bytes  uint64
	inserts         int64
	rows, trips     int64
	hits, miss      int64
	sim             time.Duration
	pruned, shed    int64
	requests        int64 // front-door frames admitted (Exec + ExecBatch)
	walSyncs        int64
	walRecs, walLen int64
}

func (s *stack) sample() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := s.router.Stats()
	ws := s.walStats()
	return counters{
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		inserts:  st.Inserts,
		rows:     st.RowsRead,
		trips:    st.NetRequests,
		hits:     st.BufferHits,
		miss:     st.BufferMiss,
		sim:      st.VirtualTime,
		pruned:   s.router.ScatterPruned(),
		shed:     s.front.Admission().Shed(),
		requests: s.reg.Counter("net.requests").Load() + s.reg.Counter("net.batches").Load(),
		walSyncs: ws.Syncs,
		walRecs:  ws.SyncedRecords,
		walLen:   ws.SyncedBytes,
	}
}

// cpuTime is getrusage user+sys of this process: client and server, and
// immune to steal (though not to a host that runs the cores slower).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process high-water mark (VmHWM) from procfs.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if f := bytes.Fields(line); len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// phase runs calls client-visible calls on every client concurrently, all
// released by one barrier, and returns the wall time until the last
// finishes.
func phase(w *workload, cs []*client, calls int) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			<-start
			for i := 0; i < calls; i++ {
				w.call(c)
			}
		}(c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

// newClients builds the load generators of one pass over s.execs; for the
// program workload each gets its own client runtime interpreting proc.
// Release them with closeClients.
func newClients(s *stack, w *workload, tr *tracer, proc *ir.Proc) []*client {
	cs := make([]*client, len(s.execs))
	for i, ex := range s.execs {
		cs[i] = &client{id: i, ex: ex, data: s.data, tr: tr}
		if w.clientRuntime {
			cs[i].openProgram(s, proc)
		}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.closeProgram()
	}
}

// arm points the clients at a generator stream and key range and clears
// what the previous phase recorded, returning that phase's op tallies.
func arm(cs []*client, seed uint64, warm bool, calls int) (ops, failed int64) {
	for _, c := range cs {
		ops, failed = ops+c.ops, failed+c.failed
		stream := uint64(streamClient + c.id)
		if warm {
			stream = uint64(streamWarm + c.id)
		}
		c.g = newGen(seed, stream)
		c.nextEID = eidBase(c.id, warm)
		c.lat = make([]int64, 0, calls)
		c.latIns, c.acked = nil, nil
		c.ops, c.failed = 0, 0
	}
	return ops, failed
}

// segment is one slice of the timed phase: what it did, how long it took,
// and how slow the host was around it.
type segment struct {
	ops       int64
	wall, cpu time.Duration
	p50       int64    // ns, median client-visible call
	slow      slowdown // mean of the calibration bursts before and after
}

// passResult is what one timed phase measured.
type passResult struct {
	wall      time.Duration // sum of the segments: calibration excluded
	timedOps  int64
	ops       int64 // everything issued: warm-up + timed + read-back
	failed    int64
	oracleErr error
	before    counters
	after     counters
	segs      []segment
	lat       []int64 // sorted, all client-visible calls
	latRead   []int64 // sorted (mixed: reads only)
	latInsert []int64 // sorted (mixed only)
}

// pass warms the stack up, runs the timed phase and applies the post-run
// oracle. The clients must be fresh. The timed phase is cut into segments
// with a calibration burst between neighbours. afterWarm, when set, runs
// between the warm-up and the timed phase.
func pass(s *stack, w *workload, cs []*client, seed uint64, calls int, cal *calibrator, afterWarm func()) (passResult, error) {
	var r passResult
	warmCalls := calls / warmFraction
	if warmCalls < 1 {
		warmCalls = 1
	}
	arm(cs, seed, true, warmCalls)
	phase(w, cs, warmCalls)
	warmOps, warmFailed := arm(cs, seed, false, calls)
	if afterWarm != nil {
		afterWarm()
	}

	segCalls := w.callsPer15s / segmentsPer15s
	if segCalls < 1 {
		segCalls = 1
	}
	r.segs = make([]segment, 0, calls/segCalls+1)
	type mark struct{ lat, ins int }
	marks := make([][]mark, 0, cap(r.segs)+1) // per segment boundary, per client
	markNow := func() {
		m := make([]mark, len(cs))
		for i, c := range cs {
			m[i] = mark{len(c.lat), len(c.latIns)}
		}
		marks = append(marks, m)
	}

	// Start every run from a collected heap so the timed phase's GC work
	// is its own.
	runtime.GC()
	r.before = s.sample()
	slow, err := cal.burst()
	if err != nil {
		return r, err
	}
	markNow()
	for done := 0; done < calls; done += segCalls {
		n := segCalls
		if calls-done < n {
			n = calls - done
		}
		seg := segment{ops: int64(n * w.opsPerCall * len(cs)), slow: slow}
		cpu0 := cpuTime()
		seg.wall = phase(w, cs, n)
		seg.cpu = cpuTime() - cpu0
		if slow, err = cal.burst(); err != nil {
			return r, err
		}
		seg.slow = seg.slow.plus(slow).over(2)
		markNow()
		r.segs = append(r.segs, seg)
		r.wall += seg.wall
	}
	r.after = s.sample()

	for k := range r.segs {
		var parts [][]int64
		for i, c := range cs {
			from, to := marks[k][i], marks[k+1][i]
			parts = append(parts, c.lat[from.lat:to.lat], c.latIns[from.ins:to.ins])
		}
		r.segs[k].p50 = median(sortedCopy(parts...))
	}
	var reads, inserts [][]int64
	for _, c := range cs {
		r.timedOps += c.ops
		r.failed += c.failed
		reads = append(reads, c.lat)
		inserts = append(inserts, c.latIns)
	}
	r.ops, r.failed = warmOps+r.timedOps, warmFailed+r.failed
	r.failed += r.after.shed - r.before.shed
	r.latRead = sortedCopy(reads...)
	r.latInsert = sortedCopy(inserts...)
	r.lat = r.latRead
	if len(r.latInsert) > 0 {
		r.lat = sortedCopy(r.latRead, r.latInsert)
	}
	if w.readsBack {
		ops, failed, err := readBack(s, cs, r.before.inserts)
		r.ops, r.failed, r.oracleErr = r.ops+ops, r.failed+failed, err
	}
	return r, nil
}

// medianOver is the median of f over the segments.
func (r passResult) medianOver(f func(segment) float64) float64 {
	v := make([]float64, len(r.segs))
	for i, seg := range r.segs {
		v[i] = f(seg)
	}
	sort.Float64s(v)
	return v[len(v)/2]
}

// throughput is the median segment's rate at reference host speed.
func (r passResult) throughput() float64 {
	return r.medianOver(func(g segment) float64 { return float64(g.ops) / g.wall.Seconds() * g.slow.mean })
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line of standard output: the contract between the
// benchmark and whatever drives it.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result attaches the table's units to the measured values. A value the
// table does not name, or a name without a value, is a bug in the
// benchmark, not in the program under test.
func (r passResult) result(defs []metricDef, values map[string]float64) runResult {
	res := runResult{
		Correct:   r.failed == 0 && r.oracleErr == nil,
		Attempted: r.ops,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			panic("bench: no value for metric " + d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		panic("bench: value for a metric the table does not name")
	}
	return res
}

// runEndToEnd is a -trace 0 run: production posture, no shim constructed,
// two closed-loop clients, the seven end-to-end metrics.
func runEndToEnd(w *workload, seed uint64, seconds float64, note func(string, ...any)) (runResult, error) {
	cal, err := newCalibrator()
	if err != nil {
		return runResult{}, err
	}
	defer cal.close()

	var s *stack
	setups := make([]float64, 0, setupRepeats) // seconds at reference host speed
	rawSetups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			// Drop the previous build completely before timing the next,
			// so every repeat (and the peak RSS) sees one stack at a time.
			s.close()
			s = nil
			runtime.GC()
		}
		slow0, err := cal.slowdownOver(setupBursts)
		if err != nil {
			return runResult{}, err
		}
		t0 := time.Now()
		if s, err = buildStack(seed, numClients, nil); err != nil {
			return runResult{}, fmt.Errorf("set-up: %w", err)
		}
		raw := time.Since(t0).Seconds()
		slow1, err := cal.slowdownOver(setupBursts)
		if err != nil {
			s.close()
			return runResult{}, err
		}
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw/slow0.plus(slow1).over(2).mean)
	}
	defer s.close()
	sort.Float64s(setups)

	calls := w.calls(seconds)
	cs := newClients(s, w, nil, s.rubisTx)
	r, err := pass(s, w, cs, seed, calls, cal, nil)
	closeClients(cs)
	if err != nil {
		return runResult{}, err
	}
	if want := int64(calls) * int64(w.opsPerCall) * numClients; r.timedOps != want {
		return runResult{}, fmt.Errorf("fixed-work accounting: timed %d ops, configured %d", r.timedOps, want)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return runResult{}, err
	}

	// Timings are per segment, divided by the host's slowdown around that
	// segment, and reported as the median segment. Counts are whole-phase.
	ops := float64(r.timedOps)
	res := r.result(endToEnd, map[string]float64{
		"throughput_ops_s": r.throughput(),
		"p50_us":           r.medianOver(func(g segment) float64 { return float64(g.p50) / 1e3 / g.slow.median }),
		"cpu_us_per_op":    r.medianOver(func(g segment) float64 { return float64(g.cpu) / 1e3 / float64(g.ops) / g.slow.mean }),
		"allocs_per_op":    float64(r.after.mallocs-r.before.mallocs) / ops,
		"bytes_per_op":     float64(r.after.bytes-r.before.bytes) / ops,
		"peak_rss_mb":      rss,
		"setup_s":          setups[len(setups)/2],
	})

	note("%s: %d timed ops in %.3fs (%d calls x %d clients in %d segments, warm-up %d calls), raw set-ups %.3fs",
		w.name, r.timedOps, r.wall.Seconds(), calls, numClients, len(r.segs), calls/warmFraction, rawSetups)
	var cpu time.Duration
	for _, g := range r.segs {
		cpu += g.cpu
	}
	note("as measured, before host-speed normalisation: %.0f ops/s, cpu %.3f us/op; median host slowdown %.3f (for sums), %.3f (for medians)",
		ops/r.wall.Seconds(), float64(cpu)/1e3/ops,
		r.medianOver(func(g segment) float64 { return g.slow.mean }), r.medianOver(func(g segment) float64 { return g.slow.median }))
	notePercentiles(note, "client (as measured)", r.lat)
	if len(r.latInsert) > 0 {
		notePercentiles(note, "client.read (as measured)", r.latRead)
		notePercentiles(note, "client.insert (as measured)", r.latInsert)
	}
	note("failed_frac %.6g (%d of %d ops: errors + sheds + wrong results)", float64(r.failed)/float64(r.ops), r.failed, r.ops)
	if r.oracleErr != nil {
		note("oracle: %v", r.oracleErr)
	}
	return res, nil
}

// notePercentiles prints p50/p99/p999 with the sample count; a percentile
// the sample cannot support (fewer than ten samples beyond it) says so.
func notePercentiles(note func(string, ...any), name string, sorted []int64) {
	line := fmt.Sprintf("%s latency over %d calls:", name, len(sorted))
	for _, q := range []struct {
		label string
		q     float64
	}{{"p50", 0.5}, {"p99", 0.99}, {"p999", 0.999}} {
		if v, ok := percentile(sorted, q.q); ok {
			line += fmt.Sprintf(" %s %.2fus", q.label, float64(v)/1e3)
		} else {
			line += fmt.Sprintf(" %s unsupported", q.label)
		}
	}
	note("%s", line)
}
