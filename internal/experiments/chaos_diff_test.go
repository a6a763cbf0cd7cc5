package experiments

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
)

// chaosInjector builds the suite's deterministic fault plan: every fault
// kind fires at least once early in the workload (pinned ordinals), then
// keeps firing at modest rates. One injector serves both sides of the wire —
// per-kind decision streams are independent, so the client's connection
// faults and the backend's disk/replica faults stay deterministic under any
// interleaving.
func chaosInjector(seed int64) *fault.Injector {
	return fault.New(seed).
		At(fault.ConnReset, 2).Rate(fault.ConnReset, 0.01).
		At(fault.TornWrite, 3).Rate(fault.TornWrite, 0.01).
		At(fault.SlowLink, 1).Rate(fault.SlowLink, 0.05).
		Delay(fault.SlowLink, 100*time.Microsecond).
		At(fault.SyncErr, 1, 2).Rate(fault.SyncErr, 0.05).
		At(fault.SyncStall, 1).Rate(fault.SyncStall, 0.02).
		Delay(fault.SyncStall, 100*time.Microsecond).
		At(fault.ReplicaCrash, 2).Rate(fault.ReplicaCrash, 0.02)
}

// TestChaosDifferential is the fault-pinned differential suite: every
// evaluation app runs its transformed program with batched asynchronous
// submission twice — once against a clean in-process server, once through
// the TCP front door onto a 2-replica group while the chaos layer fires
// connection resets, torn frames, slow links, fsync errors and stalls, and
// replica crashes mid-workload. The client absorbs transport faults with
// retries (idempotent reads, provably-unsent frames), the group absorbs
// replica faults with breakers and failover, and the WAL rides out flaky
// fsyncs. The observable outcome must be byte-identical, with zero lost and
// zero duplicated acknowledged writes. Seeded by ASYNCQ_SEED like the other
// differential suites.
func TestChaosDifferential(t *testing.T) {
	const workers = 4
	iterations := 30
	if testing.Short() {
		iterations = 10
	}
	seed := apps.SeedFromEnv(0)
	if seed == 0 {
		// Time-seeded like the replica differential harness: every run
		// explores a new fault schedule, and the log keeps it reproducible.
		seed = time.Now().UnixNano()
	}
	t.Logf("chaos differential seed: %d (reproduce with ASYNCQ_SEED=%d)", seed, seed)
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

			run := func(p *ir.Proc, label string, mk func() (runr func(query.Request) query.Result,
				batchRunr func(query.BatchRequest) query.BatchResult)) *interp.Result {
				t.Helper()
				runr, batchRunr := mk()
				svc := batch.NewService(workers, runr, batchRunr, batch.Options{MaxBatch: 8})
				svc.EnableTracing(testTracer(t))
				defer svc.Close()
				in := interp.New(app.Registry(), svc)
				if app.Bind != nil {
					app.Bind(in, apps.SeededRand())
				}
				args := app.Args(iterations, rand.New(rand.NewSource(seed)))
				res, err := in.Run(p, args)
				if err != nil {
					t.Fatalf("%s run: %v", label, err)
				}
				return res
			}

			// The clean reference: one in-process server, no faults.
			var direct *server.Server
			directRes := run(trans, "in-process", func() (func(query.Request) query.Result,
				func(query.BatchRequest) query.BatchResult) {
				direct = server.New(prof, 0.02)
				t.Cleanup(direct.Close)
				if err := app.Setup(direct, apps.SeededRand()); err != nil {
					t.Fatalf("setup: %v", err)
				}
				direct.Warm()
				return direct.Exec, direct.ExecBatch
			})

			// The chaos stack: a synchronous 2-replica group whose log store
			// the injector faults, behind a real TCP front door, driven by a retrying
			// client — with the full fault plan firing mid-workload.
			inj := chaosInjector(seed)
			var group *replica.Group
			chaosRes := run(trans, "chaos", func() (func(query.Request) query.Result,
				func(query.BatchRequest) query.BatchResult) {
				group = replica.NewGroup(prof, 0.02, replica.Options{
					Replicas: 2,
					Breaker:  2 * time.Millisecond,
					Fault:    inj,
				})
				t.Cleanup(group.Close)
				for _, s := range append([]*server.Server{group.Primary()}, group.Replicas()...) {
					if err := app.Setup(s, apps.SeededRand()); err != nil {
						t.Fatalf("setup: %v", err)
					}
					s.Warm()
				}
				fd := net.NewServer(group, net.ServerOptions{Metrics: obs.NewRegistry()})
				if err := fd.Listen("127.0.0.1:0"); err != nil {
					t.Fatalf("listen: %v", err)
				}
				t.Cleanup(fd.Close)
				client, err := net.DialOptions(fd.Addr(), net.ClientOptions{
					Retry: net.RetryPolicy{
						MaxAttempts: 25,
						BaseBackoff: 200 * time.Microsecond,
					},
					Fault: inj,
				})
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				t.Cleanup(client.Close)
				return client.Exec, client.ExecBatch
			})

			if err := interp.EquivalentResult(directRes, chaosRes); err != nil {
				t.Errorf("seed %d: chaos run diverges from in-process: %v", seed, err)
			}
			if directRes.Output != chaosRes.Output {
				t.Errorf("seed %d: output streams not byte-identical under chaos", seed)
			}
			// Zero lost, zero duplicated acknowledged writes: the group's
			// primary executed exactly the inserts the clean server did.
			if dp, cp := direct.Stats().Inserts, group.Primary().Stats().Inserts; dp != cp {
				t.Errorf("seed %d: primary executed %d inserts, clean server %d — writes were %s",
					seed, cp, dp, map[bool]string{true: "duplicated", false: "lost"}[cp > dp])
			}
			t.Logf("faults fired: %v; resilience: %+v; wal sync errors: %d",
				inj.Counts(), group.Resilience(), group.WALStats().SyncErrors)
		})
	}
}
