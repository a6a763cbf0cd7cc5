package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/server"
)

// TestBatchedExecutionMatchesAsyncOnApps pins batched submission to the
// per-query async path: for every evaluation app, running the transformed
// program with batching enabled must yield byte-identical observable output
// (returns, print/log stream, and — if the run fails — error text) to the
// unbatched async run. Several batch sizes cover the partial-batch (sent when
// the batch in flight returns) and full-batch (MaxBatch) paths.
func TestBatchedExecutionMatchesAsyncOnApps(t *testing.T) {
	const iterations = 30
	const workers = 4
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

			// run executes the transformed kernel against a fresh server;
			// maxBatch 1 is the plain per-query async service.
			run := func(maxBatch int) (*interp.Result, string) {
				t.Helper()
				srv := server.New(prof, 0.02)
				defer srv.Close()
				if err := app.Setup(srv, apps.SeededRand()); err != nil {
					t.Fatalf("setup: %v", err)
				}
				srv.ColdStart() // cold cache: the batched fast path does real page sharing
				svc := batch.NewService(workers, srv.Exec, srv.ExecBatch,
					batch.Options{MaxBatch: maxBatch})
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

			asyncRes, asyncErr := run(1)
			for _, maxBatch := range []int{2, 16, 64} {
				batchRes, batchErr := run(maxBatch)
				if asyncErr != batchErr {
					t.Fatalf("maxBatch=%d: error text %q, async path said %q",
						maxBatch, batchErr, asyncErr)
				}
				if asyncErr != "" {
					continue
				}
				if err := sameResult(asyncRes, batchRes); err != nil {
					t.Errorf("maxBatch=%d: batched run diverges from async: %v", maxBatch, err)
				}
				if batchRes.Output != asyncRes.Output {
					t.Errorf("maxBatch=%d: output streams differ", maxBatch)
				}
			}
		})
	}
}

// TestBatchedErrorTextMatchesAsync drives a failing statement through both
// submission paths and asserts the error text survives batching unchanged.
func TestBatchedErrorTextMatchesAsync(t *testing.T) {
	prof := server.SYS1()
	errText := func(maxBatch int) string {
		srv := server.New(prof, 0)
		defer srv.Close()
		app := apps.Category()
		if err := app.Setup(srv, apps.SeededRand()); err != nil {
			t.Fatalf("setup: %v", err)
		}
		svc := batch.NewService(2, srv.Exec, srv.ExecBatch, batch.Options{MaxBatch: maxBatch})
		defer svc.Close()
		h, err := svc.Submit("q", "select max(psize) from nosuch where category_id = ?", []any{int64(1)})
		if err != nil {
			t.Fatal(err)
		}
		_, err = h.Fetch()
		if err == nil {
			t.Fatal("want error from missing table")
		}
		return err.Error()
	}
	async, batched := errText(1), errText(4)
	if async != batched {
		t.Fatalf("error text differs: async %q, batched %q", async, batched)
	}
}
