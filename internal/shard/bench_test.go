package shard

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/storage"
)

// BenchmarkCopy is the copy every benchmark stack is built by: LoadFrom of a
// 200 000-row users table — a unique key, a string column and a secondary
// column of 20 000 values, both int columns indexed — onto two shards of two
// copies each (a primary and one synchronous replica), indexes included. The
// routers are built and closed outside the timer.
//
//	go test -run XXX -bench Copy -benchmem ./internal/shard/
func BenchmarkCopy(b *testing.B) {
	const rows, ratings = 200_000, 20_000
	ref := server.New(server.SYS1(), 0)
	defer ref.Close()
	schema := storage.NewSchema(
		storage.Column{Name: "uid", Type: storage.TInt},
		storage.Column{Name: "nickname", Type: storage.TString},
		storage.Column{Name: "rating", Type: storage.TInt},
	)
	if err := ref.CreateTable("users", schema, 8); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for uid := 0; uid < rows; uid++ {
		if err := ref.InsertRow("users", []any{int64(uid), "user" + strconv.Itoa(uid), int64(rng.Intn(ratings))}); err != nil {
			b.Fatal(err)
		}
	}
	ref.FinishLoad()
	if err := ref.AddIndex("users", "uid", true); err != nil {
		b.Fatal(err)
	}
	if err := ref.AddIndex("users", "rating", false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rt := New(server.SYS1(), 0, Options{Shards: 2, Group: replica.Options{Replicas: 1}, Keys: map[string]string{"users": "uid"}})
		b.StartTimer()
		if err := rt.LoadFrom(ref); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rt.Close()
		b.StartTimer()
	}
}
