package experiments

import (
	"os"
	"strings"
	"sync"
	"testing"

	"math/rand"
	"repro/internal/apps"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
)

// testTracer returns a live tracer when ASYNCQ_TRACE is set — the
// differential suites then run with the span machinery fully hot, and the
// byte-identity assertions pin that tracing is passive — or nil (tracing
// off; nil spans ride the same code paths). The cleanup asserts no span
// leaked open.
func testTracer(t *testing.T) *obs.Tracer {
	if os.Getenv("ASYNCQ_TRACE") == "" {
		return nil
	}
	tr := obs.NewTracer(nil)
	t.Cleanup(func() {
		if open := tr.Open(); open != 0 {
			t.Errorf("ASYNCQ_TRACE: %d of %d spans left open", open, tr.Started())
		}
	})
	return tr
}

// countSpans walks a trace tree, asserting every span was ended and every
// non-root span is reachable from its root, and returns the node count.
func countSpans(t *testing.T, sp *obs.Span) int {
	t.Helper()
	if !sp.Ended() {
		t.Errorf("span %q collected but never ended", sp.Name())
	}
	n := 1
	for _, c := range sp.Children() {
		n += countSpans(t, c)
	}
	return n
}

// TestTraceCompleteness drives a transformed app workload through the full
// traced stack — batched submission over a sharded router whose shards are
// WAL-backed replica groups — and asserts the books balance: every span the
// tracer minted was ended, and every one of them is reachable from a
// collected root (no orphans, no leaks). This is the structural guarantee
// the slow-query log and the tail-latency figure rest on.
func TestTraceCompleteness(t *testing.T) {
	app := apps.RUBiS()
	trans, rep, err := core.Transform(app.Proc(), core.Options{Registry: app.Registry()})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	if rep.TransformedCount() == 0 {
		t.Fatal("no site transformed")
	}

	ref := server.New(server.SYS1(), 0)
	defer ref.Close()
	if err := app.Setup(ref, apps.SeededRand()); err != nil {
		t.Fatalf("setup: %v", err)
	}
	rt := shard.New(server.SYS1(), 0, shard.Options{
		Shards: 3, Keys: app.ShardKeys,
		Group: replica.Options{Replicas: 2},
	})
	defer rt.Close()
	if err := rt.LoadFrom(ref); err != nil {
		t.Fatalf("load: %v", err)
	}

	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg)
	var mu sync.Mutex
	var roots []*obs.Span
	tr.SetCollector(func(root *obs.Span) {
		mu.Lock()
		roots = append(roots, root)
		mu.Unlock()
	})

	svc := batch.NewService(4, rt.Exec, rt.ExecBatch, batch.Options{MaxBatch: 8})
	svc.EnableTracing(tr)
	rt.RegisterMetrics(reg, "")
	in := interp.New(app.Registry(), svc)
	if app.Bind != nil {
		app.Bind(in, apps.SeededRand())
	}
	args := app.Args(40, rand.New(rand.NewSource(47)))
	if _, err := in.Run(trans, args); err != nil {
		t.Fatalf("run: %v", err)
	}
	// RUBiS is read-heavy; a seeded random workload (inserts included)
	// drives the write path too, so the trees reach WAL commit and replica
	// apply. Root spans opened here flow through the same collector.
	rng := rand.New(rand.NewSource(99))
	for _, op := range apps.RandomWorkload(ref, 60, rng) {
		sp := tr.Start("request")
		if op.Batch() {
			rt.ExecBatch(query.BatchReq("w", op.SQL, op.ArgSets).WithSpan(sp))
		} else {
			rt.Exec(query.Req("w", op.SQL, op.ArgSets[0]).WithSpan(sp))
		}
		sp.End()
	}
	svc.Close()

	if tr.Started() == 0 {
		t.Fatal("no spans were started; tracing never engaged")
	}
	if open := tr.Open(); open != 0 {
		t.Fatalf("%d of %d spans left open after drain", open, tr.Started())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(roots) == 0 {
		t.Fatal("collector saw no root spans")
	}
	total := 0
	for _, root := range roots {
		if root.Name() != "request" {
			t.Errorf("collected root named %q, want \"request\"", root.Name())
		}
		total += countSpans(t, root)
	}
	if int64(total) != tr.Started() {
		t.Errorf("trace trees hold %d spans, tracer minted %d: some spans are orphaned", total, tr.Started())
	}

	// The trees actually reach the bottom of the stack: the registry holds
	// per-shard fan-out, WAL commit, and replica read histograms.
	var b strings.Builder
	if err := reg.Dump(&b); err != nil {
		t.Fatalf("dump: %v", err)
	}
	dump := b.String()
	for _, want := range []string{"span.request.wall", "span.shard", "span.wal.commit.wall", "span.server"} {
		if !strings.Contains(dump, want) {
			t.Errorf("registry dump missing %q\n%s", want, dump)
		}
	}
}
