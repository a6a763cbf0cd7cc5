package wal_test

import (
	"fmt"
	"testing"

	"repro/internal/wal"
)

// BenchmarkAppendCommit is one append + group commit on a log that already
// retains `tail` committed records — the shape of the repository benchmark's
// probe.wal.append_commit_ns and probe.wal.append_commit_tail64k_ns rows. The
// two sub-benchmarks should read alike: a commit costs what it wrote, not
// what the log still holds.
func BenchmarkAppendCommit(b *testing.B) {
	const sql = "insert into events values (?, ?, ?)"
	for _, tail := range []int{0, 1 << 16} {
		b.Run(fmt.Sprintf("tail=%d", tail), func(b *testing.B) {
			l := wal.New(wal.Options{Mode: wal.Group})
			defer l.Close()
			for i := 0; i < tail; i++ {
				l.Append("event", sql, [][]any{{int64(i), int64(i), "note"}})
			}
			l.SyncTo(l.LastLSN())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Commit(l.Append("event", sql, [][]any{{int64(i), int64(i), "note"}}))
			}
		})
	}
}
