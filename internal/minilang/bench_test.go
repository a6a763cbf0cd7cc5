package minilang_test

// An external test package: internal/apps imports minilang.

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/minilang"
)

func BenchmarkParse(b *testing.B) {
	src := apps.Category().Source
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minilang.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
