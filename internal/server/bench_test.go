package server

import (
	"fmt"
	"testing"

	"repro/internal/query"
	"repro/internal/storage"
)

// BenchmarkServerHotPath measures the server's own execution loop on the two
// batched aggregate shapes — an index probe per binding and the shared scan —
// on a warm cache with simulated latencies disabled (Scale = 0), so time/op
// and allocs/op are the engine's, not the simulator's. The point read and the
// row-returning batch are timed by the repository benchmark
// (probe.server.point_*, probe.server.batch64_*).
//
//	go test -run XXX -bench ServerHotPath -benchmem ./internal/server/
func BenchmarkServerHotPath(b *testing.B) {
	const batchSize = 16
	run := func(name, sql string, argOf func(i int) []any) {
		b.Run(name, func(b *testing.B) {
			srv := New(SYS1(), 0)
			defer srv.Close()
			users := srv.Catalog().CreateTable("users", storage.NewSchema(
				storage.Column{Name: "id", Type: storage.TInt},
				storage.Column{Name: "name", Type: storage.TString},
				storage.Column{Name: "rating", Type: storage.TInt},
			))
			for i := int64(0); i < 8192; i++ {
				if _, err := users.Insert([]any{i, fmt.Sprintf("user%d", i), i % 32}); err != nil {
					b.Fatal(err)
				}
			}
			srv.FinishLoad()
			if err := srv.AddIndex("users", "id", true); err != nil {
				b.Fatal(err)
			}
			if err := srv.AddIndex("users", "rating", false); err != nil {
				b.Fatal(err)
			}
			srv.Warm()
			argSets := make([][]any, batchSize)
			for i := range argSets {
				argSets[i] = argOf(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, errs := srv.ExecBatch(query.BatchReq("q", sql, argSets)).Pair()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	run("batch-agg-index", "select count(id) from users where rating = ?",
		func(i int) []any { return []any{int64(i % 32)} })
	run("batch-agg-scan", "select sum(rating) from users where name = ?",
		func(i int) []any { return []any{fmt.Sprintf("user%d", i)} })
}
