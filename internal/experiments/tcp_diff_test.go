package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/server"
)

// TestTCPExecutionMatchesInProcessOnApps pins the network front door to the
// in-process stack: for every evaluation app, running the transformed
// program with batched asynchronous submission through a TCP client —
// wire-encoded requests, a real listener, pipelined connections, columnar
// result decode — must yield byte-identical observable output (returns and
// print/log stream) to the same run calling the server directly. Seeded by
// ASYNCQ_SEED like the other differential suites (the app corpus itself is
// deterministic; the seed feeds the argument generator).
func TestTCPExecutionMatchesInProcessOnApps(t *testing.T) {
	const workers = 4
	iterations := 30
	if testing.Short() {
		iterations = 10
	}
	seed := apps.SeedFromEnv(0)
	if seed == 0 {
		seed = int64(iterations + 7) // the suite's pinned default
	}
	t.Logf("tcp differential seed: %d (override with ASYNCQ_SEED)", seed)
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

			// Each mode gets its own identically-seeded server: runs mutate
			// state (forms inserts), so sharing one backend would let the
			// first mode's writes leak into the second.
			newBackend := func() *server.Server {
				srv := server.New(prof, 0.02)
				t.Cleanup(srv.Close)
				if err := app.Setup(srv, apps.SeededRand()); err != nil {
					t.Fatalf("setup: %v", err)
				}
				srv.Warm()
				return srv
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

			direct := run(trans, "in-process", func() (func(query.Request) query.Result,
				func(query.BatchRequest) query.BatchResult) {
				srv := newBackend()
				return srv.Exec, srv.ExecBatch
			})

			remote := run(trans, "tcp", func() (func(query.Request) query.Result,
				func(query.BatchRequest) query.BatchResult) {
				srv := newBackend()
				fd := net.NewServer(srv, net.ServerOptions{Metrics: obs.NewRegistry()})
				if err := fd.Listen("127.0.0.1:0"); err != nil {
					t.Fatalf("listen: %v", err)
				}
				t.Cleanup(fd.Close)
				client, err := net.Dial(fd.Addr())
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				t.Cleanup(client.Close)
				return client.Exec, client.ExecBatch
			})

			if err := interp.EquivalentResult(direct, remote); err != nil {
				t.Errorf("TCP run diverges from in-process: %v", err)
			}
			if direct.Output != remote.Output {
				t.Errorf("output streams not byte-identical over TCP")
			}
		})
	}
}
