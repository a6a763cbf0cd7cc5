package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/server"
)

// Differential coverage for the slot-compiled evaluator over the five
// evaluation applications: each app's kernel — original and transformed —
// must produce the same returns, output and final environment on the
// tree-walking reference path (RunTree) and the compiled path (Run),
// running against the real simulated database server.
func TestCompiledEvaluatorMatchesTreeOnApps(t *testing.T) {
	const iterations = 30
	prof := server.SYS1()
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			orig := app.Proc()
			trans, rep, err := core.Transform(orig, core.Options{Registry: app.Registry()})
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			if rep.TransformedCount() == 0 {
				t.Fatalf("no site transformed")
			}

			runVia := func(p *ir.Proc, workers int, tree bool) *interp.Result {
				t.Helper()
				srv := server.New(prof, 0.02)
				defer srv.Close()
				if err := app.Setup(srv, apps.SeededRand()); err != nil {
					t.Fatalf("setup: %v", err)
				}
				srv.Warm()
				svc := exec.NewService(workers, srv.Exec)
				svc.EnableTracing(testTracer(t))
				defer svc.Close()
				in := interp.New(app.Registry(), svc)
				if app.Bind != nil {
					app.Bind(in, apps.SeededRand())
				}
				args := app.Args(iterations, rand.New(rand.NewSource(iterations+7)))
				var res *interp.Result
				if tree {
					res, err = in.RunTree(p, args)
				} else {
					res, err = in.Run(p, args)
				}
				if err != nil {
					t.Fatalf("run (tree=%v): %v", tree, err)
				}
				return res
			}

			for _, v := range []struct {
				label   string
				proc    *ir.Proc
				workers int
			}{
				{"original", orig, 0},
				{"transformed", trans, 4},
			} {
				rt := runVia(v.proc, v.workers, true)
				rc := runVia(v.proc, v.workers, false)
				if err := interp.EquivalentResult(rt, rc); err != nil {
					t.Errorf("%s kernel: compiled path diverges from tree path: %v", v.label, err)
				}
			}
		})
	}
}
