package buffer

import (
	"sync/atomic"
	"testing"
)

// benchPages is the warm working set the hit benchmarks cycle over: two
// extents, as an index probe touches a bucket page and then a data page.
const benchPages = 4096

func warmPool(b *testing.B) *Pool {
	p, d := newPool(4 * benchPages)
	b.Cleanup(d.Close)
	p.Preload(0, 0, benchPages)
	p.Preload(1, 0, benchPages)
	return p
}

// BenchmarkGetHit is one warm touch of a set of one page: what sqlmini pays
// per extent of a one-binding statement (its bucket page, then its data page).
//
//	go test -run XXX -bench GetHit -benchmem ./internal/buffer/
func BenchmarkGetHit(b *testing.B) {
	p := warmPool(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Get(i&1, []int{(i * 7) & (benchPages - 1)})
	}
	if _, misses := p.Stats(); misses != 0 {
		b.Fatalf("%d misses on a warm pool", misses)
	}
}

// BenchmarkGetHit64 is one warm touch of 64 ascending distinct pages of one
// extent, the data pages of a 64-binding batch; ns/op is per call.
func BenchmarkGetHit64(b *testing.B) {
	p := warmPool(b)
	sets := make([][]int, benchPages/64)
	for k := range sets {
		for j := 0; j < 64; j++ {
			sets[k] = append(sets[k], j*(benchPages/64)+k)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Get(i&1, sets[i%len(sets)])
	}
	if _, misses := p.Stats(); misses != 0 {
		b.Fatalf("%d misses on a warm pool", misses)
	}
}

// BenchmarkGetHitParallel is the same touch from GOMAXPROCS goroutines over
// the same pages: what concurrent executions on one server pay.
func BenchmarkGetHitParallel(b *testing.B) {
	p := warmPool(b)
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(seed.Add(1)) * 1009
		for pb.Next() {
			p.Get(i&1, []int{(i * 7) & (benchPages - 1)})
			i++
		}
	})
}
