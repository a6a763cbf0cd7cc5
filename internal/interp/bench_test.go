package interp_test

// An external test package: internal/apps imports interp.

import (
	"testing"

	"repro/internal/apps"
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
