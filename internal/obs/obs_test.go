package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramPercentileOracle checks quantile estimates against a
// sorted-sample oracle across several distributions. The histogram's
// contract: the estimate is an upper bound on the true order statistic,
// within one sub-bucket width (1/32 ≈ 3.2%) relative error.
func TestHistogramPercentileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() int64{
		"uniform": func() int64 { return rng.Int63n(10_000_000) },
		"exp":     func() int64 { return int64(rng.ExpFloat64() * 2e6) },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 50_000_000 + rng.Int63n(1_000_000)
			}
			return 100_000 + rng.Int63n(10_000)
		},
		"small": func() int64 { return rng.Int63n(30) }, // exact linear region
	}
	for name, gen := range dists {
		t.Run(name, func(t *testing.T) {
			h := &Histogram{name: name}
			n := 20000
			samples := make([]int64, n)
			for i := range samples {
				v := gen()
				samples[i] = v
				h.Record(v)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			s := h.Snapshot()
			if s.Count != int64(n) {
				t.Fatalf("count = %d, want %d", s.Count, n)
			}
			var sum int64
			for _, v := range samples {
				sum += v
			}
			if s.Sum != sum {
				t.Fatalf("sum = %d, want %d", s.Sum, sum)
			}
			if s.Max != samples[n-1] {
				t.Fatalf("max = %d, want %d", s.Max, samples[n-1])
			}
			for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
				rank := int(q*float64(n) + 0.9999999)
				if rank < 1 {
					rank = 1
				}
				if rank > n {
					rank = n
				}
				oracle := samples[rank-1]
				est := s.Quantile(q)
				if est < oracle {
					t.Errorf("q=%v: estimate %d below oracle %d", q, est, oracle)
				}
				// Upper bound: one sub-bucket above the oracle's bucket.
				_, hi := bucketBounds(bucketOf(oracle))
				if est > hi {
					t.Errorf("q=%v: estimate %d above bucket bound %d (oracle %d)", q, est, hi, oracle)
				}
			}
		})
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	vals := []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1 << 20, 1<<62 + 12345, 1<<63 - 1}
	for _, v := range vals {
		idx := bucketOf(v)
		lo, hi := bucketBounds(idx)
		// Buckets are half-open except the top one, whose clamped upper
		// edge MaxInt64 is inclusive.
		if v < lo || (v >= hi && hi != 1<<63-1) {
			t.Errorf("value %d landed in bucket %d = [%d,%d)", v, idx, lo, hi)
		}
		if idx >= histBuckets {
			t.Errorf("value %d bucket %d out of range %d", v, idx, histBuckets)
		}
	}
	if b := bucketOf(-5); b != 0 {
		// Record clamps negatives before bucketing; bucketOf itself is
		// only defined for v >= 0, which Record guarantees.
		_ = b
	}
}

// TestSnapshotMergeAssociativity: (a ∪ b) ∪ c == a ∪ (b ∪ c), and the
// merge of per-part snapshots equals the snapshot of all data recorded
// into one histogram.
func TestSnapshotMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parts := make([]*Histogram, 3)
	whole := &Histogram{}
	for i := range parts {
		parts[i] = &Histogram{}
		for j := 0; j < 5000; j++ {
			v := rng.Int63n(1_000_000)
			parts[i].Record(v)
			whole.Record(v)
		}
	}
	a, b, c := parts[0].Snapshot(), parts[1].Snapshot(), parts[2].Snapshot()

	left := cloneSnap(a)
	left.Merge(b)
	left.Merge(c)

	bc := cloneSnap(b)
	bc.Merge(c)
	right := cloneSnap(a)
	right.Merge(bc)

	if !snapEqual(left, right) {
		t.Fatal("merge is not associative")
	}
	if !snapEqual(left, whole.Snapshot()) {
		t.Fatal("merged parts differ from whole")
	}
}

func cloneSnap(s HistSnapshot) HistSnapshot {
	c := s
	c.Buckets = append([]int64(nil), s.Buckets...)
	return c
}

func snapEqual(a, b HistSnapshot) bool {
	if a.Count != b.Count || a.Sum != b.Sum || a.Max != b.Max {
		return false
	}
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			return false
		}
	}
	return true
}

// TestConcurrentRecording hammers one histogram, counters, and gauges
// from many goroutines; run under -race this pins the lock-free paths.
func TestConcurrentRecording(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	c := reg.Counter("ops")
	g := reg.Gauge("load")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Record(int64(i))
				c.Add(1)
				g.Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := c.Load(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestRecordNoAlloc pins the zero-allocation contract of the hot path.
func TestRecordNoAlloc(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	c := reg.Counter("ops")
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(12345)
		c.Add(1)
	}); n != 0 {
		t.Fatalf("record path allocates %v times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		reg.Histogram("lat").Record(1)
	}); n != 0 {
		t.Fatalf("histogram lookup allocates %v times per op, want 0", n)
	}
}

func TestRegistryDump(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("server.queries").Add(42)
	reg.Gauge("pool.fill").Set(0.5)
	reg.Histogram("lat").Record(int64(3 * time.Millisecond))
	reg.RegisterSource("shard0", func() map[string]float64 {
		return map[string]float64{"disk.reads": 7}
	})
	var b bytes.Buffer
	if err := reg.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"server.queries", "42", "pool.fill", "lat", "p99", "shard0", "disk.reads"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}

	b.Reset()
	if err := reg.DumpJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("DumpJSON not valid JSON: %v", err)
	}
	for _, k := range []string{"counters", "gauges", "histograms", "sources"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("JSON dump missing %q", k)
		}
	}
}

// TestSpanTree exercises span construction, charges, the slow log, and
// the open/closed accounting.
func TestSpanTree(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	var slow bytes.Buffer
	tr.SetSlowLog(1, &slow) // everything is slow
	var roots []*Span
	tr.SetCollector(func(r *Span) { roots = append(roots, r) })

	root := tr.Start("request")
	root.SetDetail("select * from t")
	child := root.Child("server.exec")
	child.Charge(2 * time.Millisecond)
	child.SetDetail(ShardLabel(3))
	grand := child.Child("wal.commit")
	grand.End()
	child.End()
	root.End()
	root.End() // idempotent

	if tr.Started() != 3 || tr.Ended() != 3 || tr.Open() != 0 {
		t.Fatalf("span accounting: started=%d ended=%d open=%d", tr.Started(), tr.Ended(), tr.Open())
	}
	if len(roots) != 1 || roots[0] != root {
		t.Fatalf("collector got %d roots", len(roots))
	}
	if got := root.SimTotal(); got != 2*time.Millisecond {
		t.Fatalf("SimTotal = %v, want 2ms", got)
	}
	out := slow.String()
	for _, want := range []string{"slow query", "request", "server.exec", "wal.commit", "shard 3", "sim=2ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("slow log missing %q:\n%s", want, out)
		}
	}
	if s := reg.Histogram("span.request.wall").Snapshot(); s.Count != 1 {
		t.Errorf("span.request.wall count = %d, want 1", s.Count)
	}
	if s := reg.Histogram("span.server.exec.sim").Snapshot(); s.Count != 1 {
		t.Errorf("span.server.exec.sim count = %d, want 1", s.Count)
	}
}

// TestNilSafety: every span/tracer method must be a no-op on nil.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x")
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	sp.Charge(time.Second)
	sp.SetDetail("d")
	c := sp.Child("y")
	if c != nil {
		t.Fatal("nil span minted a child")
	}
	c.End()
	sp.End()
	if tr.Started() != 0 || tr.Ended() != 0 || tr.Open() != 0 {
		t.Fatal("nil tracer accounting not zero")
	}
	if sp.Name() != "" || sp.Sim() != 0 || sp.SimTotal() != 0 || sp.Children() != nil {
		t.Fatal("nil span accessors not zero")
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	var s HistSnapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty snapshot quantile/mean not 0")
	}
	h := &Histogram{}
	h.Record(5)
	snap := h.Snapshot()
	for _, q := range []float64{0.001, 0.5, 1} {
		// The bucket's upper edge is 6, but the Max clamp makes a
		// single-value quantile exact.
		if got := snap.Quantile(q); got != 5 {
			t.Fatalf("q=%v = %d, want 5", q, got)
		}
	}
}
