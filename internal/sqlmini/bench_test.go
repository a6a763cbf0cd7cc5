package sqlmini

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/simclock"
	"repro/internal/storage"
)

// benchUsers loads 65536 users indexed by uid into a warm pool and returns a
// row select by that key with one binding per row, in a scattered key order.
func benchUsers(b testing.TB) (*storage.Catalog, *buffer.Pool, *Stmt, [][]any) {
	const rows = 1 << 16
	cat := storage.NewCatalog()
	d := disk.New(disk.DefaultParams(), simclock.New(0))
	b.Cleanup(d.Close)
	pool := buffer.NewPool(1<<14, d)
	users := cat.CreateTable("users", storage.NewSchema(
		storage.Column{Name: "uid", Type: storage.TInt},
		storage.Column{Name: "name", Type: storage.TString},
		storage.Column{Name: "rating", Type: storage.TInt},
	))
	for i := int64(0); i < rows; i++ {
		if _, err := users.Insert([]any{i, fmt.Sprintf("user%d", i), i % 32}); err != nil {
			b.Fatal(err)
		}
	}
	const bucketPages = 1024
	ixExtent := cat.NextExtent()
	if err := users.AddIndex("uid", true, ixExtent, bucketPages); err != nil {
		b.Fatal(err)
	}
	pool.Preload(users.Extent, 0, users.NumPages())
	pool.Preload(ixExtent, 0, bucketPages)
	st, err := Parse("select uid, name, rating from users where uid = ?")
	if err != nil {
		b.Fatal(err)
	}
	argSets := make([][]any, rows)
	for i := range argSets {
		argSets[i] = []any{int64((i * 7919) % rows)}
	}
	b.Cleanup(func() {
		if _, misses := pool.Stats(); misses != 0 {
			b.Fatalf("%d misses on a warm pool", misses)
		}
	})
	return cat, pool, st, argSets
}

// BenchmarkExecute1 is the kernel over a set of one, the point select every
// request workload but batch sends: one index probe, two page touches, a
// one-row result and its owned Matched trace.
//
//	go test -run XXX -bench Execute1 -benchmem ./internal/sqlmini/
func BenchmarkExecute1(b *testing.B) {
	cat, pool, st, argSets := benchUsers(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, info, err := Execute(st, cat, pool, argSets[i%len(argSets)])
		if err != nil || info.RowsReturned != 1 {
			b.Fatalf("point: %v, %d rows", err, info.RowsReturned)
		}
	}
}

// BenchmarkExecuteBatch64 is the batch kernel alone: a row select by unique
// key under 64 bindings on a warm pool — one index resolution, one locked set
// probe, 64 + 64 page touches, one shared result block. It is the shape of the
// repository benchmark's batch workload below the server's accounting.
//
//	go test -run XXX -bench ExecuteBatch64 -benchmem ./internal/sqlmini/
func BenchmarkExecuteBatch64(b *testing.B) {
	const batch = 64
	cat, pool, st, argSets := benchUsers(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := (i * batch) % (len(argSets) - batch)
		_, errs, info := ExecuteBatch(st, cat, pool, argSets[at:at+batch])
		if errs[0] != nil || info.RowsReturned != batch {
			b.Fatalf("batch: %v, %d rows", errs[0], info.RowsReturned)
		}
	}
}
