package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/interp"
	"repro/internal/query"
)

// fakeStack answers the workloads' statements straight from the dataset, so
// the generators, the accounting and the oracle can be tested without the
// system under test. It folds every request into an order-independent
// digest (the program workload submits from four workers) and can corrupt
// one result in every corruptEvery.
type fakeStack struct {
	d            *dataset
	digest       atomic.Uint64
	requests     atomic.Int64
	corruptEvery int64
}

func (f *fakeStack) answer(sql string, args []any) (any, error) {
	n := f.requests.Add(1)
	h := mix64(uint64(len(sql)))
	for _, a := range args {
		switch v := a.(type) {
		case int64:
			h = mix64(h ^ uint64(v))
		case string:
			h = mix64(h ^ uint64(len(v)))
		}
	}
	f.digest.Add(h)
	corrupt := f.corruptEvery > 0 && n%f.corruptEvery == 0
	switch sql {
	case sqlPoint:
		uid := args[0].(int64)
		rating := f.d.rating[uid]
		if corrupt {
			rating++
		}
		return interp.Rows{{"nickname": f.d.nick[uid], "rating": rating}}, nil
	case sqlScatter:
		var rows interp.Rows
		for _, uid := range f.d.byRating[args[0].(int64)] {
			rows = append(rows, interp.Row{"uid": int64(uid), "nickname": f.d.nick[uid]})
		}
		if corrupt {
			rows = append(rows, interp.Row{"uid": int64(0), "nickname": "user0"})
		}
		return rows, nil
	case sqlInsert:
		if corrupt {
			return nil, fmt.Errorf("injected insert failure")
		}
		return int64(1), nil
	}
	return nil, fmt.Errorf("fake stack: unexpected statement %q", sql)
}

func (f *fakeStack) Exec(req query.Request) query.Result {
	v, err := f.answer(req.SQL, req.Args)
	return query.Result{Value: v, Err: err}
}

func (f *fakeStack) ExecBatch(req query.BatchRequest) query.BatchResult {
	res := query.BatchResult{Values: make([]any, len(req.ArgSets)), Errs: make([]error, len(req.ArgSets))}
	for i, args := range req.ArgSets {
		res.Values[i], res.Errs[i] = f.answer(req.SQL, args)
	}
	return res
}

var testData = sync.OnceValue(func() *dataset { return newDataset(7) })

// drive runs calls timed calls per client of w against a fake stack and
// returns the clients and the fake.
func drive(t *testing.T, w *workload, d *dataset, seed uint64, clients, calls int, corruptEvery int64) ([]*client, *fakeStack) {
	t.Helper()
	f := &fakeStack{d: d, corruptEvery: corruptEvery}
	s := &stack{data: d}
	if err := s.transformProgram(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clients; i++ {
		s.execs = append(s.execs, f)
	}
	cs := newClients(s, w, nil, s.rubisTx)
	defer closeClients(cs)
	arm(cs, seed, false, calls)
	phase(w, cs, calls)
	return cs, f
}

func TestPercentileAndSampleCount(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		q    float64
		want int64
		ok   bool
	}{
		{0.5, 500, true},
		{0.99, 990, true},   // exactly ten samples beyond it
		{0.999, 999, false}, // one sample beyond it: refused
	} {
		got, ok := percentile(s, tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..1000, %v) = %d, %v; want %d, %v", tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample supports a percentile")
	}
	if got := supported(s[:30], 0.99); got != 0 {
		t.Errorf("p99 over 30 samples reported as %v, want 0 (unsupported)", got)
	}
	if got := median(sortedCopy([]int64{9, 1}, []int64{5})); got != 5 {
		t.Errorf("median of merged samples = %d, want 5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestSelfTimeMergesParallelChildren(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"sequential", []interval{{110, 120}, {130, 150}}, 70},
		{"scatter legs overlap", []interval{{110, 150}, {120, 160}}, 50},
		{"one leg inside the other", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped to the parent", []interval{{90, 110}, {195, 250}}, 85},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestLinkResolvesParentsByContainment(t *testing.T) {
	// One scatter request (two overlapping group legs) followed by one
	// insert whose WAL sync happens inside its group span.
	spans := []span{
		{Name: "group.read", Start: 30, End: 70, Parent: -1},
		{Name: "client.read", Start: 0, End: 100, Parent: -1},
		{Name: "group.read", Start: 25, End: 60, Parent: -1},
		{Name: "door.read", Start: 20, End: 80, Parent: -1},
		{Name: "client.insert", Start: 200, End: 300, Parent: -1},
		{Name: "door.insert", Start: 210, End: 290, Parent: -1},
		{Name: "group.insert", Start: 220, End: 280, Parent: -1},
		{Name: "wal.sync", Start: 240, End: 250, Parent: -1},
	}
	link(spans)
	parentName := func(i int) string {
		if spans[i].Parent < 0 {
			return ""
		}
		return spans[spans[i].Parent].Name
	}
	for i, s := range spans {
		want := map[string]string{
			"client.read": "", "client.insert": "",
			"door.read": "client.read", "door.insert": "client.insert",
			"group.read": "door.read", "group.insert": "door.insert",
			"wal.sync": "group.insert",
		}[s.Name]
		if got := parentName(i); got != want {
			t.Errorf("parent of %s [%d,%d) = %q, want %q", s.Name, s.Start, s.End, got, want)
		}
	}
	sums := summarize(spans)
	// door.read [20,80) minus the union of its legs [25,70) = 15.
	if got := sums["door.read"].self; got != 15 {
		t.Errorf("door.read self time %d, want 15", got)
	}
	if got := sums["client.read"].self; got != 40 {
		t.Errorf("client.read self time %d, want 40", got)
	}
	if got := sums["group.read"]; got.n != 2 || got.dur != 75 {
		t.Errorf("group.read = %+v, want 2 spans of 75 ns in all", *got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	d := testData()
	for _, w := range workloads {
		calls := 200
		if w.clientRuntime {
			calls = 2
		}
		_, a := drive(t, w, d, 1, 2, calls, 0)
		_, b := drive(t, w, d, 1, 2, calls, 0)
		_, c := drive(t, w, d, 2, 2, calls, 0)
		if a.digest.Load() != b.digest.Load() {
			t.Errorf("%s: same seed gave different op streams", w.name)
		}
		if a.digest.Load() == c.digest.Load() {
			t.Errorf("%s: different seeds gave the same op stream", w.name)
		}
	}
	if reflect.DeepEqual(newDataset(1).rating[:64], newDataset(2).rating[:64]) {
		t.Error("different seeds gave the same dataset")
	}
	if !reflect.DeepEqual(newDataset(1).byRating, newDataset(1).byRating) {
		t.Error("same seed gave different datasets")
	}
}

func TestFixedOpAccounting(t *testing.T) {
	d := testData()
	for _, w := range workloads {
		calls := w.calls(0.01)
		cs, f := drive(t, w, d, 3, numClients, calls, 0)
		var ops, failed int64
		for _, c := range cs {
			ops += c.ops
			failed += c.failed
			if got := len(c.lat) + len(c.latIns); got != calls {
				t.Errorf("%s: client %d recorded %d latency samples for %d calls", w.name, c.id, got, calls)
			}
		}
		want := int64(calls) * int64(w.opsPerCall) * numClients
		if ops != want || f.requests.Load() != want {
			t.Errorf("%s: timed %d ops, stack saw %d, configured %d", w.name, ops, f.requests.Load(), want)
		}
		if failed != 0 {
			t.Errorf("%s: %d ops failed against a correct stack", w.name, failed)
		}
	}
	w := workloadByName("point")
	if got := w.calls(15); got != w.callsPer15s {
		t.Errorf("calls(15) = %d, want the calibration %d", got, w.callsPer15s)
	}
	if got := w.calls(1e-9); got != 1 {
		t.Errorf("calls never drops below one, got %d", got)
	}
}

func TestOracleCountsCorruptedResults(t *testing.T) {
	d := testData()
	for _, w := range workloads {
		calls, every := 100, int64(10)
		if w.clientRuntime {
			calls, every = 2, 1500 // one wrong row in each 2 000-iteration invocation
		}
		cs, f := drive(t, w, d, 4, 1, calls, every)
		corrupted := f.requests.Load() / every
		if corrupted == 0 {
			t.Fatalf("%s: nothing was corrupted", w.name)
		}
		want := corrupted
		if w.clientRuntime {
			want = corrupted * programIters // a wrong total fails the whole invocation
		}
		if got := cs[0].failed; got != want {
			t.Errorf("%s: %d corrupted results, %d ops counted failed, want %d", w.name, corrupted, got, want)
		}
	}
}

func TestEventOracle(t *testing.T) {
	d := testData()
	eid := eidBase(1, false) + 17
	good := interp.Rows{{"uid": d.eventUID(eid), "note": eventNote(eid)}}
	if !d.isEvent(good, eid) {
		t.Error("a correct event row was rejected")
	}
	if d.isEvent(interp.Rows{{"uid": d.eventUID(eid) + 1, "note": eventNote(eid)}}, eid) || d.isEvent(interp.Rows{}, eid) || d.isEvent(nil, eid) {
		t.Error("a wrong, missing or absent event row was accepted")
	}
	if eidBase(0, false) == eidBase(0, true) || eidBase(0, false) == eidBase(1, false) {
		t.Error("key ranges overlap")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, k float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * k
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 70, 130, 100, 95, 105, 85}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "within"},
		{"5% slower", lower, steady, scale(steady, 1.05), "within"},
		{"20% slower", lower, steady, scale(steady, 1.20), "regressed"},
		{"20% faster", lower, steady, scale(steady, 0.80), "within"},
		{"throughput down 20%", higher, steady, scale(steady, 0.80), "regressed"},
		{"throughput up 20%", higher, steady, scale(steady, 1.20), "within"},
		{"too noisy to tell", lower, noisy, scale(noisy, 1.05), "unresolved"},
		{"noisy but every run worse", lower, noisy, scale(noisy, 2), "regressed"},
	} {
		if got := compareRuns(tc.def, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps the driver's copy of the benchmark
// definition identical to the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var def struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(def.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", def.Command, def.Paths)
	}
	if def.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", def.RunSeconds, defaultSeconds)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q", i, def.Workloads[i].Name, def.Workloads[i].Why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s[%d] %s: bound mismatch", kind, i, d.Name)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd, true)
	check("per_layer", def.PerLayer, perLayer, false)
}
