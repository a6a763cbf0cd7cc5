package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/server"
	"repro/internal/shard"
)

// TestShardedExecutionMatchesSingleServerOnApps pins the sharded cluster to
// the single-server path: for every evaluation app, running the transformed
// program with batched submission against a 4-shard router must yield
// byte-identical observable output (returns and print/log stream) to the
// same batched run on one server holding all the data. Cold caches make the
// scatter-gather and per-shard batch paths do real page work.
func TestShardedExecutionMatchesSingleServerOnApps(t *testing.T) {
	const iterations = 30
	const workers = 4
	const shards = 4
	prof := server.SYS1()
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			trans, rep, err := core.Transform(app.Proc(), core.Options{Registry: app.Registry()})
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			if rep.TransformedCount() == 0 {
				t.Fatal("no site transformed")
			}

			// One reference load serves every side: the single-server run
			// executes on it and each batching mode gets its own router
			// partitioned from it — all built before any run, so a mutating
			// app (forms) cannot leak one mode's inserts into the next.
			ref := server.New(prof, 0.02)
			defer ref.Close()
			if err := app.Setup(ref, apps.SeededRand()); err != nil {
				t.Fatalf("setup: %v", err)
			}
			newRouter := func() *shard.Router {
				rt := shard.New(prof, 0.02, shard.Options{Shards: shards, Keys: app.ShardKeys})
				if err := rt.LoadFrom(ref); err != nil {
					rt.Close()
					t.Fatalf("shard load: %v", err)
				}
				t.Cleanup(rt.Close)
				return rt
			}
			rtSplit, rtGrouped := newRouter(), newRouter()

			run := func(runr exec.Runner, batchRunr exec.BatchRunner,
				cold func(), opts batch.Options) (*interp.Result, string) {
				t.Helper()
				cold()
				opts.MaxBatch = 8
				svc := batch.NewService(workers, runr, batchRunr, opts)
				svc.EnableTracing(testTracer(t))
				defer svc.Close()
				in := interp.New(app.Registry(), svc)
				if app.Bind != nil {
					app.Bind(in, apps.SeededRand())
				}
				args := app.Args(iterations, rand.New(rand.NewSource(iterations+7)))
				res, err := in.Run(trans, args)
				if err != nil {
					return nil, err.Error()
				}
				return res, ""
			}

			singleRes, singleErr := run(ref.Exec, ref.ExecBatch,
				ref.ColdStart, batch.Options{})
			// Two sharded modes: mixed batches that ExecBatch splits per
			// shard, and shard-aware coalescing (GroupFn) where every batch
			// already targets one shard.
			modes := []struct {
				label string
				rt    *shard.Router
				opts  batch.Options
			}{
				{"split", rtSplit, batch.Options{}},
				{"grouped", rtGrouped, batch.Options{GroupFn: rtGrouped.BatchGroup}},
			}
			for _, mode := range modes {
				rt := mode.rt
				shardRes, shardErr := run(rt.Exec, rt.ExecBatch,
					rt.ColdStart, mode.opts)
				if singleErr != shardErr {
					t.Fatalf("%s: error text: sharded %q, single-server %q", mode.label, shardErr, singleErr)
				}
				if singleErr != "" {
					continue
				}
				if err := sameResult(singleRes, shardRes); err != nil {
					t.Errorf("%s: sharded run diverges from single-server: %v", mode.label, err)
				}
				if shardRes.Output != singleRes.Output {
					t.Errorf("%s: output streams differ", mode.label)
				}
			}

			// The cluster really is partitioned: for apps with immutable data,
			// more than one shard must have answered queries.
			if !app.MutatesData {
				var queries []int64
				busy := 0
				for _, b := range rtSplit.Backends() {
					q := b.Stats().Queries
					queries = append(queries, q)
					if q > 0 {
						busy++
					}
				}
				if busy < 2 {
					t.Errorf("expected work on >= 2 shards, per-shard queries %v", queries)
				}
			}
		})
	}
}

// TestMeasureClusterSmall drives the cluster harness path (router caching,
// warm-up, result verification, routing- and read-balance accounting) at
// zero scale over bare-server and replicated topologies, including the
// mutating forms app, which rebuilds its cluster per run.
func TestMeasureClusterSmall(t *testing.T) {
	h := NewHarness()
	h.Scale = 0 // logic only
	defer h.Close()
	topologies := []struct{ shards, replicas int }{{1, 0}, {2, 0}, {4, 0}, {2, 1}, {2, 2}}
	for _, app := range []*apps.App{apps.RUBiS(), apps.Forms()} {
		for _, tp := range topologies {
			runs, err := h.Measure(Config{App: app, Profile: server.SYS1(), Threads: 4, Iterations: 25, Warm: true,
				MaxBatch: 8, Shards: tp.shards, Replicas: tp.replicas}, Batched, Cluster)
			if err != nil {
				t.Errorf("%s %+v: %v", app.Name, tp, err)
				continue
			}
			m := runs[1]
			var q int64
			for _, c := range m.ShardQueries {
				q += c
			}
			if len(m.ShardQueries) != tp.shards || q < 25 {
				t.Errorf("%s %+v: cluster answered %v queries, want >= 25 over %d shards",
					app.Name, tp, m.ShardQueries, tp.shards)
			}
			if tp.replicas == 0 {
				if m.ReplicaReads != nil {
					t.Errorf("%s %+v: read balance %v over bare servers", app.Name, tp, m.ReplicaReads)
				}
				continue
			}
			if len(m.ReplicaReads) != tp.shards {
				t.Errorf("%s %+v: want read balance per shard, got %v", app.Name, tp, m.ReplicaReads)
				continue
			}
			var reads int64
			for _, shardReads := range m.ReplicaReads {
				if len(shardReads) != tp.replicas {
					t.Errorf("%s %+v: want %d replicas in balance row, got %v", app.Name, tp, tp.replicas, shardReads)
				}
				for _, r := range shardReads {
					reads += r
				}
			}
			// The read-only kernel's queries were all served by replicas.
			if app.Name == "rubis" && reads < 25 {
				t.Errorf("%s %+v: replicas served %d reads, want >= 25", app.Name, tp, reads)
			}
		}
	}
}
