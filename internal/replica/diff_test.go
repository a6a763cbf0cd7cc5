package replica_test

// The randomized differential harness: seeded random query/insert workloads
// over every evaluation app, executed against a single server, a sharded
// cluster, and a sharded cluster whose shards are replica groups — with
// replica failures injected and recovered mid-workload — asserting
// byte-identical results (values and error text) op by op.
//
// Seeds: -seed N pins the workload; with no flag the ASYNCQ_SEED
// environment variable is used (the CI race job fixes it there), and with
// neither the seed comes from the clock and is logged, so any failure
// reproduces with -seed.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"repro/internal/query"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
)

var seedFlag = flag.Int64("seed", 0, "randomized differential workload seed (0: ASYNCQ_SEED env, else time-based)")

// workloadSeed resolves and logs the suite's seed.
func workloadSeed(t *testing.T) int64 {
	seed := apps.SeedFromEnv(*seedFlag)
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("workload seed %d (reproduce with: go test -run %s -seed %d ./internal/replica/)", seed, t.Name(), seed)
	return seed
}

// fmtOut renders one execution outcome byte-comparably.
func fmtOut(v any, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return "ok: " + interp.Format(v)
}

// traceTracer returns a live tracer when ASYNCQ_TRACE is set, so the
// differential workload runs with the whole span machinery hot — the results
// must stay byte-identical, pinning that tracing is passive. With the
// variable unset it returns nil: nil spans thread through the same code
// paths for free. The cleanup asserts no span leaked open.
func traceTracer(t *testing.T) *obs.Tracer {
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

// cluster is one execution backend under differential test.
type cluster struct {
	name      string
	exec      func(sql string, args []any) (any, error)
	execBatch func(sql string, argSets [][]any) ([]any, []error)
}

// TestRandomizedDifferentialAllApps is the harness entry point: for every
// evaluation app it loads one reference server, partitions a 3-shard router
// and a 3-shard × (1 primary + 2 replicas) router from it, and drives all
// three with the same seeded random workload in four chunks. Between chunks
// replicas are killed and recovered; chunk generation re-samples the
// (deterministically) mutated reference, so reads chase the workload's own
// inserts across shards and replicas.
func TestRandomizedDifferentialAllApps(t *testing.T) {
	seed := workloadSeed(t)
	nOps := 360
	if testing.Short() {
		nOps = 120 // short-mode cap: keep `go test -short ./...` fast
	}
	const shards = 3
	for ai, app := range apps.All() {
		app, ai := app, ai
		t.Run(app.Name, func(t *testing.T) {
			ref := server.New(server.SYS1(), 0)
			t.Cleanup(ref.Close)
			if err := app.Setup(ref, apps.SeededRand()); err != nil {
				t.Fatalf("setup: %v", err)
			}
			newRouter := func(replicas int) *shard.Router {
				rt := shard.New(server.SYS1(), 0, shard.Options{
					Shards: shards, Keys: app.ShardKeys, Group: replica.Options{Replicas: replicas},
				})
				t.Cleanup(rt.Close)
				if err := rt.LoadFrom(ref); err != nil {
					t.Fatalf("load: %v", err)
				}
				return rt
			}
			sharded := newRouter(0)
			replicated := newRouter(2)
			groups := replicated.Groups()
			if groups == nil {
				t.Fatal("replicated router reports no groups")
			}

			// Each op gets a root span when ASYNCQ_TRACE is set; with tr nil
			// the Start/End pair is a pair of nil checks and ExecSpan(nil, …)
			// is exactly Exec.
			tr := traceTracer(t)
			traced := func(rt *shard.Router) cluster {
				return cluster{"",
					func(sql string, args []any) (any, error) {
						sp := tr.Start("request")
						defer sp.End()
						return rt.Exec(query.Req("w", sql, args).WithSpan(sp)).Pair()
					},
					func(sql string, argSets [][]any) ([]any, []error) {
						sp := tr.Start("request")
						defer sp.End()
						return rt.ExecBatch(query.BatchReq("w", sql, argSets).WithSpan(sp)).Pair()
					}}
			}
			shardedC, replicatedC := traced(sharded), traced(replicated)
			shardedC.name, replicatedC.name = "sharded", "sharded+replicated"
			clusters := []cluster{shardedC, replicatedC}

			rng := rand.New(rand.NewSource(seed + int64(ai)*1_000_003))
			opNo := 0
			runChunk := func(label string, n int) {
				t.Helper()
				// Generate against the current reference state: after the
				// first chunk the samples chase rows this workload inserted.
				ops := apps.RandomWorkload(ref, n, rng)
				for _, op := range ops {
					opNo++
					if op.Batch() {
						wantVals, wantErrs := ref.ExecBatch(query.BatchReq("w", op.SQL, op.ArgSets)).Pair()
						for _, c := range clusters {
							gotVals, gotErrs := c.execBatch(op.SQL, op.ArgSets)
							for j := range op.ArgSets {
								want := fmtOut(wantVals[j], wantErrs[j])
								got := fmtOut(gotVals[j], gotErrs[j])
								if want != got {
									t.Fatalf("seed %d op %d (%s) %q binding %d:\n  %s: %s\n  single:  %s",
										seed, opNo, label, op.SQL, j, c.name, got, want)
								}
							}
						}
						continue
					}
					wantV, wantErr := ref.Exec(query.Req("w", op.SQL, op.ArgSets[0])).Pair()
					for _, c := range clusters {
						gotV, gotErr := c.exec(op.SQL, op.ArgSets[0])
						want, got := fmtOut(wantV, wantErr), fmtOut(gotV, gotErr)
						if want != got {
							t.Fatalf("seed %d op %d (%s) %q:\n  %s: %s\n  single:  %s",
								seed, opNo, label, op.SQL, c.name, got, want)
						}
					}
				}
			}

			chunk := nOps / 4
			runChunk("healthy", chunk)

			// Kill both replicas of every group: the next requests fault them
			// out mid-workload and reads fail over (ultimately to primaries).
			for _, g := range groups {
				for _, rep := range g.Replicas() {
					rep.FailNext(1)
				}
			}
			runChunk("replicas failing", chunk)

			// Recover everything — backlogs replay — then run degraded again
			// with shard 0's replicas administratively failed out.
			for _, g := range groups {
				for i := range g.Replicas() {
					if err := g.Recover(i); err != nil {
						t.Fatalf("recover: %v", err)
					}
				}
			}
			for i := range groups[0].Replicas() {
				groups[0].FailOut(i)
			}
			runChunk("shard 0 on primary only", chunk)

			for i := range groups[0].Replicas() {
				if err := groups[0].Recover(i); err != nil {
					t.Fatalf("rejoin: %v", err)
				}
			}
			runChunk("all rejoined", nOps-3*chunk)

			// The failure schedule really was exercised.
			var faults int64
			for _, g := range groups {
				for _, f := range g.Faults() {
					faults += f
				}
			}
			if faults == 0 {
				t.Fatalf("seed %d: no injected fault was consumed; failover untested", seed)
			}
			for _, g := range groups {
				for i, h := range g.Healthy() {
					if !h {
						t.Fatalf("replica %d still out of rotation at workload end", i)
					}
				}
			}
		})
	}
}

// TestRandomWorkloadIsDeterministic pins the generator's only contract the
// differential test cannot check itself: the same seed over the same loaded
// reference yields the same ops.
func TestRandomWorkloadIsDeterministic(t *testing.T) {
	gen := func() []apps.WorkloadOp {
		ref := server.New(server.SYS1(), 0)
		defer ref.Close()
		app := apps.RUBiS()
		if err := app.Setup(ref, apps.SeededRand()); err != nil {
			t.Fatal(err)
		}
		return apps.RandomWorkload(ref, 50, rand.New(rand.NewSource(42)))
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatalf("op counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].SQL != b[i].SQL || fmt.Sprint(a[i].ArgSets) != fmt.Sprint(b[i].ArgSets) {
			t.Fatalf("op %d differs:\n  %v\n  %v", i, a[i], b[i])
		}
	}
}

// TestDifferentialPrimaryCrashRecovery drives the replicated cluster with the
// seeded workload and kills every shard's primary between chunks — first on a
// base-snapshot-only log, then again after a mid-log checkpoint so restart
// replays snapshot + suffix. Restart rebuilds each primary from its WAL;
// byte-identity with the single reference server across the crash proves no
// acknowledged write was lost.
func TestDifferentialPrimaryCrashRecovery(t *testing.T) {
	runPrimaryCrashRecovery(t, apps.All(), func(t *testing.T, shards int, keys map[string]string) *shard.Router {
		return shard.New(server.SYS1(), 0, shard.Options{Shards: shards, Keys: keys, Group: replica.Options{Replicas: 1}})
	}, nil)
}

// runPrimaryCrashRecovery is the crash-recovery differential for the given
// apps over whatever replicated cluster mkRouter builds (one replica per
// group); after, when set, inspects each app's groups once its workload is
// done.
func runPrimaryCrashRecovery(t *testing.T, all []*apps.App, mkRouter func(t *testing.T, shards int, keys map[string]string) *shard.Router, after func(t *testing.T, groups []*replica.Group)) {
	seed := workloadSeed(t)
	nOps := 240
	if testing.Short() {
		nOps = 96
	}
	const shards = 3
	for ai, app := range all {
		app, ai := app, ai
		t.Run(app.Name, func(t *testing.T) {
			ref := server.New(server.SYS1(), 0)
			t.Cleanup(ref.Close)
			if err := app.Setup(ref, apps.SeededRand()); err != nil {
				t.Fatalf("setup: %v", err)
			}
			rt := mkRouter(t, shards, app.ShardKeys)
			t.Cleanup(rt.Close)
			if err := rt.LoadFrom(ref); err != nil {
				t.Fatalf("load: %v", err)
			}
			groups := rt.Groups()
			if groups == nil {
				t.Fatal("router reports no groups")
			}

			rng := rand.New(rand.NewSource(seed + 7_777_777 + int64(ai)*1_000_003))
			opNo := 0
			runChunk := func(label string, n int) {
				t.Helper()
				ops := apps.RandomWorkload(ref, n, rng)
				for _, op := range ops {
					opNo++
					if op.Batch() {
						wantVals, wantErrs := ref.ExecBatch(query.BatchReq("w", op.SQL, op.ArgSets)).Pair()
						gotVals, gotErrs := rt.ExecBatch(query.BatchReq("w", op.SQL, op.ArgSets)).Pair()
						for j := range op.ArgSets {
							want := fmtOut(wantVals[j], wantErrs[j])
							got := fmtOut(gotVals[j], gotErrs[j])
							if want != got {
								t.Fatalf("seed %d op %d (%s) %q binding %d:\n  cluster: %s\n  single:  %s",
									seed, opNo, label, op.SQL, j, got, want)
							}
						}
						continue
					}
					wantV, wantErr := ref.Exec(query.Req("w", op.SQL, op.ArgSets[0])).Pair()
					gotV, gotErr := rt.Exec(query.Req("w", op.SQL, op.ArgSets[0])).Pair()
					want, got := fmtOut(wantV, wantErr), fmtOut(gotV, gotErr)
					if want != got {
						t.Fatalf("seed %d op %d (%s) %q:\n  cluster: %s\n  single:  %s",
							seed, opNo, label, op.SQL, got, want)
					}
				}
			}

			crashRestartAll := func(label string) {
				t.Helper()
				for i, g := range groups {
					old := g.Primary()
					g.CrashPrimary()
					if !g.PrimaryDown() {
						t.Fatalf("%s: shard %d primary should be down", label, i)
					}
					if err := g.RestartPrimary(); err != nil {
						t.Fatalf("%s: restart shard %d: %v", label, i, err)
					}
					if g.PrimaryDown() || g.Primary() == old {
						t.Fatalf("%s: shard %d primary was not rebuilt", label, i)
					}
				}
			}

			chunk := nOps / 4
			runChunk("healthy", chunk)
			// Base-snapshot restart: replay = snapshot(LSN 0) + full log.
			crashRestartAll("first crash")
			runChunk("after crash+restart", chunk)
			// Checkpoint mid-log, then crash: replay = snapshot(mid) + suffix.
			for i, g := range groups {
				if err := g.Checkpoint(); err != nil {
					t.Fatalf("checkpoint shard %d: %v", i, err)
				}
			}
			runChunk("after checkpoint", chunk)
			crashRestartAll("post-checkpoint crash")
			runChunk("after second restart", nOps-3*chunk)

			// The log really carried writes across both crashes.
			for i, g := range groups {
				st := g.WALStats()
				if st.DurableLSN == 0 || st.Syncs == 0 {
					t.Fatalf("shard %d: workload never exercised the WAL: %+v", i, st)
				}
			}
			if after != nil {
				after(t, groups)
			}
		})
	}
}

// firstNonNil is firstErr for test use.
func firstNonNil(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
