package interp_test

// An external test package: internal/apps imports interp.

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minilang"
)

const spinSrc = `
proc spin(n) {
  i = 0;
  s = 0;
  while (i < n) {
    s = s + i * 3 % 7;
    i = i + 1;
  }
  return s;
}`

func benchSpin(b *testing.B, run func(*interp.Interp, *ir.Proc, []interp.Value) (*interp.Result, error)) {
	proc := minilang.MustParse(spinSrc)
	in := interp.New(ir.NewRegistry(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(in, proc, []interp.Value{int64(1000)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpLoop measures the production evaluator (slot-compiled
// path; the program is compiled once and cached by the Interp) on a
// query-free kernel.
func BenchmarkInterpLoop(b *testing.B) { benchSpin(b, (*interp.Interp).Run) }

// BenchmarkInterpLoopTree measures the tree-walking reference evaluator on
// the same kernel, keeping the compiled path's speedup visible.
func BenchmarkInterpLoopTree(b *testing.B) { benchSpin(b, (*interp.Interp).RunTree) }

// BenchmarkCompile measures the one-time cost of slot compilation (paid
// once per program, then amortised by the caches in asyncq.Run, Interp.Run
// and the experiments harness).
func BenchmarkCompile(b *testing.B) {
	proc := apps.Category().Proc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := interp.Compile(proc); p == nil {
			b.Fatal("nil program")
		}
	}
}

// doneHandle is a query that has already finished.
type doneHandle struct{ v interp.Value }

func (h *doneHandle) Fetch() (interp.Value, error) { return h.v, nil }

// stubService answers every query at once with one user row and hands out
// one finished handle for every submission, so what a run of the RUBiS
// kernel allocates over it is the interpreter's own.
type stubService struct{ h *doneHandle }

// stubRating keeps the kernel's running total above the boxed-int table
// from the first iteration on, so the total's boxing is counted every time.
const stubRating = 8192

func newStubService() stubService {
	row := interp.Rows{{"nickname": "user1", "rating": int64(stubRating)}}
	return stubService{&doneHandle{row}}
}

func (s stubService) Exec(string, string, []interp.Value) (interp.Value, error) { return s.h.v, nil }
func (s stubService) Submit(string, string, []interp.Value) (interp.Handle, error) {
	return s.h, nil
}

const rubisIters = 2000

// rubisKernel returns the RUBiS kernel, rewritten for asynchronous
// submission (a submit loop over a temporary table, then a fetch loop) when
// transformed is set, with an interpreter over the stub and its arguments.
func rubisKernel(tb testing.TB, transformed bool) (*interp.Interp, *ir.Proc, []interp.Value) {
	app := apps.RUBiS()
	reg := app.Registry()
	proc := app.Proc()
	if transformed {
		opts := core.DefaultOptions()
		opts.Registry = reg
		tx, rep, err := core.Transform(proc, opts)
		if err != nil || rep.TransformedCount() == 0 {
			tb.Fatalf("transform: %v (%d rewritten)", err, rep.TransformedCount())
		}
		proc = tx
	}
	ids := make([]interp.Value, rubisIters)
	for i := range ids {
		ids[i] = int64(8192 + i)
	}
	return interp.New(reg, newStubService()), proc, []interp.Value{interp.NewList(ids...)}
}

// runRubis runs the kernel once and checks its total.
func runRubis(tb testing.TB, in *interp.Interp, proc *ir.Proc, args []interp.Value) {
	res, err := in.Run(proc, args)
	if err != nil {
		tb.Fatal(err)
	}
	if got := res.Returned[0]; got != any(int64(rubisIters*stubRating)) {
		tb.Fatalf("total %v, want %d", got, rubisIters*stubRating)
	}
}

// BenchmarkRunTransformedRUBiS times one iteration of the transformed RUBiS
// kernel (submit loop, then fetch loop) over a query service that answers
// at once: the client runtime's own cost per iteration.
func BenchmarkRunTransformedRUBiS(b *testing.B) {
	in, proc, args := rubisKernel(b, true)
	runRubis(b, in, proc, args) // compile outside the timed loop
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runRubis(b, in, proc, args)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	iters := float64(b.N) * rubisIters
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/iters, "ns/iter")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/iters, "allocs/iter")
}
