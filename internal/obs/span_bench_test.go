package obs

import "testing"

// BenchmarkSpanLifecycle prices one fully-detailed request tree: a root
// plus two children with detail and a sim charge — the per-request cost
// when a slow-query log or collector keeps whole trees.
func BenchmarkSpanLifecycle(b *testing.B) {
	tr := NewTracer(NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("request")
		sp.SetDetail("select 1")
		c := sp.Child("batch.wait")
		c.End()
		c2 := sp.Child("shard.exec")
		c2.SetDetail(ShardLabel(2))
		c2.Charge(1000)
		c2.End()
		sp.End()
	}
}

// BenchmarkSpanLifecycleParallel is the same tree under concurrent
// producers, exercising the striped histogram record path.
func BenchmarkSpanLifecycleParallel(b *testing.B) {
	tr := NewTracer(NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			sp := tr.Start("request")
			c := sp.Child("shard.exec")
			c.Charge(1000)
			c.End()
			sp.End()
		}
	})
}
