package main

// The metric tables. BENCHMARK.json at the repository root repeats them
// for the driver; TestBenchmarkJSONMatchesTables keeps the two identical.

// metricDef names one metric, its unit and which direction is better.
// Bound (end-to-end only) is the share of the baseline median by which the
// metric may worsen before a change counts as a regression; NOISE.md shows
// each is at least twice what identical code is observed to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd are the numbers a user of the system would see, measured with
// tracing off. The three timings are at reference host speed (calib.go);
// the counts are as measured. failed_frac is deliberately not here: it is
// zero at the baseline, so a relative bound cannot gate it — failures are
// reported as failed/attempted and gate the run absolutely (non-zero exit).
//
// The issue's floors were 0.08 / 0.10 / 0.08 / 0.02 / 0.03 / 0.10 / 0.20.
// The timings, peak_rss_mb and setup_s are widened to what this host can
// hold; NOISE.md has the runs that say so.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.15},
	{"allocs_per_op", "allocs", "lower", 0.02},
	{"bytes_per_op", "B", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the numbers of single layers, from the traced pass, the
// stack's own counters and the single-goroutine probes. They carry no
// bound: they explain a change, they do not gate it.
var perLayer = []metricDef{
	// wire + front door
	{Name: "net.self_us", Unit: "us", Better: "lower"},
	{Name: "net.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "net.shed", Unit: "count", Better: "lower"},
	{Name: "probe.net.roundtrip_noop_us", Unit: "us", Better: "lower"},
	{Name: "probe.net.encode_exec_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.net.decode_exec_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.net.encode_result_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.net.decode_result_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.net.encode_batch_result_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.net.decode_batch_result_ns", Unit: "ns", Better: "lower"},
	// shard router
	{Name: "shard.self_us", Unit: "us", Better: "lower"},
	{Name: "shard.fanout", Unit: "count", Better: "lower"},
	{Name: "shard.scatter_pruned", Unit: "count", Better: "higher"},
	{Name: "probe.shard.point_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.shard.scatter_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.shard.batch64_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "probe.shard.owner_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.shard.batch_group_ns", Unit: "ns", Better: "lower"},
	// replica group
	{Name: "replica.read_span_us", Unit: "us", Better: "lower"},
	{Name: "replica.insert_span_us", Unit: "us", Better: "lower"},
	{Name: "probe.replica.read_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.replica.insert_ns", Unit: "ns", Better: "lower"},
	// write-ahead log
	{Name: "wal.records_per_sync", Unit: "count", Better: "higher"},
	{Name: "wal.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "wal.store_us_per_sync", Unit: "us", Better: "lower"},
	{Name: "probe.wal.append_commit_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.wal.append_commit_tail64k_ns", Unit: "ns", Better: "lower"},
	// simulated server (sqlmini + storage + buffer underneath)
	{Name: "server.rows_read_per_op", Unit: "count", Better: "lower"},
	{Name: "server.round_trips_per_op", Unit: "count", Better: "lower"},
	{Name: "server.sim_us_per_op", Unit: "us", Better: "lower"},
	{Name: "server.buffer_hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "probe.server.point_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.server.point_allocs", Unit: "allocs", Better: "lower"},
	{Name: "probe.server.scatter_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.server.scatter_allocs", Unit: "allocs", Better: "lower"},
	{Name: "probe.server.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.server.insert_allocs", Unit: "allocs", Better: "lower"},
	{Name: "probe.server.batch64_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "probe.server.batch64_allocs_per_row", Unit: "allocs", Better: "lower"},
	// client runtime
	{Name: "interp.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "exec.submit_us", Unit: "us", Better: "lower"},
	{Name: "exec.fetch_wait_us", Unit: "us", Better: "lower"},
	{Name: "batch.avg_batch_size", Unit: "count", Better: "higher"},
	{Name: "batch.round_trips_per_op", Unit: "count", Better: "lower"},
	{Name: "probe.interp.iter_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.exec.submit_fetch_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.batch.submit_fetch_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.core.transform_us", Unit: "us", Better: "lower"},
	// the paper's headline and the diagnostics
	{Name: "program.speedup_x", Unit: "x", Better: "higher"},
	{Name: "client.call_us", Unit: "us", Better: "lower"},
	{Name: "client.p99_us", Unit: "us", Better: "lower"},
	{Name: "client.p999_us", Unit: "us", Better: "lower"},
	{Name: "client.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.insert_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
}
