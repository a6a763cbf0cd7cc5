package dataflow

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/ir"
)

// BenchmarkDDGBuild times building the data-dependence graph of the
// category-traversal kernel's query loop.
func BenchmarkDDGBuild(b *testing.B) {
	app := apps.Category()
	var loop ir.Stmt
	for _, s := range app.Proc().Body.Stmts {
		if _, ok := s.(*ir.While); ok {
			loop = s
		}
	}
	reg := app.Registry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := BuildLoop(loop, reg); len(g.Edges) == 0 {
			b.Fatal("no edges")
		}
	}
}
