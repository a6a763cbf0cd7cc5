package core

import (
	"testing"

	"repro/internal/apps"
)

// BenchmarkTransformCategoryWithReorder times the full transformation of the
// category-traversal kernel, the evaluation app whose query site needs
// statement reordering before fission. The RUBiS kernel (no reordering) is
// timed by the repository benchmark as probe.core.transform_us.
func BenchmarkTransformCategoryWithReorder(b *testing.B) {
	app := apps.Category()
	proc := app.Proc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Transform(proc, Options{Registry: app.Registry()}); err != nil {
			b.Fatal(err)
		}
	}
}
