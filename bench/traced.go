package main

import (
	"fmt"
	"math"
	"runtime"
)

// budgetTolerance is how far net.self + shard.self + the replica span may
// sit from the client-visible call before the traced run refuses its own
// numbers: the layers are meant to account for the whole call.
const budgetTolerance = 0.10

// runTraced is a -trace 1 run. It makes two passes at a twentieth of the
// op count with ONE client at depth one: a reference pass with no shim
// (percentiles, the probes, the program speed-up) and the traced pass
// proper. The difference between the two is the tracing overhead.
func runTraced(w *workload, seed uint64, seconds float64, note func(string, ...any)) (runResult, error) {
	calls := w.calls(seconds) / traceDivisor
	if calls < 1 {
		calls = 1
	}
	values := map[string]float64{}
	// Both passes are calibrated like an end-to-end run, so the ratios
	// between them (tracing overhead, program speed-up) compare rates at
	// the same host speed, not whatever the host did in between.
	cal, err := newCalibrator()
	if err != nil {
		return runResult{}, err
	}
	defer cal.close()

	// ---- reference pass: tracing off, same concurrency ----
	s, err := buildStack(seed, 1, nil)
	if err != nil {
		return runResult{}, fmt.Errorf("set-up: %w", err)
	}
	cs := newClients(s, w, nil, s.rubisTx)
	ref, err := pass(s, w, cs, seed, calls, cal, nil)
	closeClients(cs)
	if err != nil {
		s.close()
		return runResult{}, err
	}
	refRate := ref.throughput()
	values["client.p99_us"] = supported(ref.lat, 0.99)
	values["client.p999_us"] = supported(ref.lat, 0.999)
	values["client.read_p50_us"], values["client.insert_p50_us"] = 0, 0
	if len(ref.latInsert) > 0 {
		values["client.read_p50_us"] = float64(median(ref.latRead)) / 1e3
		values["client.insert_p50_us"] = float64(median(ref.latInsert)) / 1e3
	}
	notePercentiles(note, "client (untraced, 1 client)", ref.lat)

	values["program.speedup_x"] = 0
	if w.clientRuntime {
		// The blocking original on a tenth of the invocations: same
		// connection, same service, executeQuery instead of submit/fetch.
		blocking := calls / 10
		if blocking < 1 {
			blocking = 1
		}
		cs := newClients(s, w, nil, s.rubisOrig)
		orig, err := pass(s, w, cs, seed, blocking, cal, nil)
		closeClients(cs)
		if err != nil {
			s.close()
			return runResult{}, err
		}
		ref.ops, ref.failed = ref.ops+orig.ops, ref.failed+orig.failed
		values["program.speedup_x"] = refRate / orig.throughput()
	}
	if err := runProbes(s, values); err != nil {
		s.close()
		return runResult{}, fmt.Errorf("probes: %w", err)
	}
	s.close()
	runtime.GC()

	// ---- traced pass ----
	tr := newTracer()
	s, err = buildStack(seed, 1, tr)
	if err != nil {
		return runResult{}, fmt.Errorf("traced set-up: %w", err)
	}
	defer s.close()
	cs = newClients(s, w, tr, s.rubisTx)
	r, err := pass(s, w, cs, seed, calls, cal, tr.reset)
	values["batch.avg_batch_size"] = 0
	if w.clientRuntime {
		_, values["batch.avg_batch_size"] = cs[0].svc.BatchStats()
	}
	closeClients(cs)
	if err != nil {
		return runResult{}, err
	}
	r.ops, r.failed = r.ops+ref.ops, r.failed+ref.failed
	if r.oracleErr == nil {
		r.oracleErr = ref.oracleErr
	}

	tr.mu.Lock()
	spans := tr.spans
	wireBytes, wireOps := tr.wireBytes, tr.wireOps
	tr.mu.Unlock()
	link(spans)
	path, err := writeTrace(outDir, w.name, spans)
	if err != nil {
		return runResult{}, fmt.Errorf("write trace: %w", err)
	}
	note("%d spans written to %s", len(spans), path)

	sums := summarize(spans)
	get := func(names ...string) (sum layerSum) {
		for _, name := range names {
			if ls := sums[name]; ls != nil {
				sum.n, sum.dur, sum.self = sum.n+ls.n, sum.dur+ls.dur, sum.self+ls.self
			}
		}
		return sum
	}
	us := func(ns, n int64) float64 { return ratio(float64(ns), float64(n)) / 1e3 }

	ops := float64(r.timedOps)
	client := get("client.read", "client.insert")
	door := get("door.read", "door.insert")
	group := get("group.read", "group.insert")
	values["client.call_us"] = us(client.dur, client.n)
	values["net.self_us"] = us(client.self, client.n)
	values["shard.self_us"] = us(door.self, door.n)
	values["shard.fanout"] = ratio(float64(group.n), float64(door.n))
	// What the router span spent inside its replica groups, per door call;
	// parallel scatter legs are merged, so this is time on the blocking path.
	dr, di := get("door.read"), get("door.insert")
	values["replica.read_span_us"] = us(dr.dur-dr.self, dr.n)
	values["replica.insert_span_us"] = us(di.dur-di.self, di.n)
	store := get("wal.append", "wal.sync")
	values["wal.store_us_per_sync"] = us(store.dur, get("wal.sync").n)
	values["interp.self_us_per_op"] = us(get("interp.run").self, r.timedOps)
	sub, fetch := get("svc.submit"), get("svc.fetch")
	values["exec.submit_us"] = us(sub.dur, sub.n)
	values["exec.fetch_wait_us"] = us(fetch.dur, fetch.n)

	b, a := r.before, r.after
	values["net.bytes_per_op"] = ratio(float64(wireBytes), float64(wireOps))
	values["net.shed"] = float64(a.shed - b.shed)
	values["shard.scatter_pruned"] = float64(a.pruned - b.pruned)
	values["wal.records_per_sync"] = ratio(float64(a.walRecs-b.walRecs), float64(a.walSyncs-b.walSyncs))
	values["wal.bytes_per_record"] = ratio(float64(a.walLen-b.walLen), float64(a.walRecs-b.walRecs))
	values["server.rows_read_per_op"] = float64(a.rows-b.rows) / ops
	values["server.round_trips_per_op"] = float64(a.trips-b.trips) / ops
	values["server.sim_us_per_op"] = float64(a.sim-b.sim) / 1e3 / ops
	values["server.buffer_hit_frac"] = ratio(float64(a.hits-b.hits), float64(a.hits-b.hits+a.miss-b.miss))
	values["batch.round_trips_per_op"] = float64(a.requests-b.requests) / ops
	values["trace.overhead_frac"] = 1 - r.throughput()/refRate

	res := r.result(perLayer, values)
	if w.budgetChecked {
		sum := values["net.self_us"] + values["shard.self_us"] + values["replica.read_span_us"]
		call := values["client.call_us"]
		note("budget: net.self %.2f + shard.self %.2f + replica.read_span %.2f = %.2f us of client.call %.2f us",
			values["net.self_us"], values["shard.self_us"], values["replica.read_span_us"], sum, call)
		if math.Abs(sum-call) > budgetTolerance*call {
			note("budget check FAILED: the layers account for %.1f%% of the call", 100*sum/call)
			res.Correct = false
		}
	}
	return res, nil
}

// supported is a percentile in microseconds, or 0 when the sample is too
// small to support it.
func supported(sorted []int64, q float64) float64 {
	if v, ok := percentile(sorted, q); ok {
		return float64(v) / 1e3
	}
	return 0
}

// ratio guards the zero denominator: a layer that did nothing reports 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
