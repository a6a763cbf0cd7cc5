package exec_test

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/testsvc"
)

// BenchmarkExecutorThroughput is one caller at depth one through an
// eight-worker pool: submit, hand-off to a worker, fetch. The repository
// benchmark's probe.exec.submit_fetch_ns times the pipelined shape (2 000
// submissions, then 2 000 fetches).
func BenchmarkExecutorThroughput(b *testing.B) {
	svc := exec.NewService(8, testsvc.Runner())
	defer svc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := svc.Submit("q", "select 1", []any{int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Fetch(); err != nil {
			b.Fatal(err)
		}
	}
}
