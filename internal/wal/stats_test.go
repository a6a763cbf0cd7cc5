package wal

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/query"
)

// TestRatioHelpersZeroGuard pins the division-by-zero guards: before any
// fsync has happened every ratio helper must report 0, not NaN/Inf.
func TestRatioHelpersZeroGuard(t *testing.T) {
	var s Stats
	if got := s.AvgGroup(); got != 0 {
		t.Errorf("AvgGroup() on zero stats = %v, want 0", got)
	}
	if got := s.AvgSyncBytes(); got != 0 {
		t.Errorf("AvgSyncBytes() on zero stats = %v, want 0", got)
	}
	for k, v := range s.Metrics() {
		if v != v || v != 0 { // NaN or nonzero
			t.Errorf("Metrics()[%q] on zero stats = %v, want 0", k, v)
		}
	}

	// A freshly started log has appended nothing and synced nothing.
	l := New(Options{})
	defer l.Close()
	if got := l.Stats().AvgGroup(); got != 0 {
		t.Errorf("fresh log AvgGroup() = %v, want 0", got)
	}

	s = Stats{Syncs: 4, SyncedRecords: 10, SyncedBytes: 400}
	if got := s.AvgGroup(); got != 2.5 {
		t.Errorf("AvgGroup() = %v, want 2.5", got)
	}
	if got := s.AvgSyncBytes(); got != 100 {
		t.Errorf("AvgSyncBytes() = %v, want 100", got)
	}
}

// TestLogMetrics checks that a metrics-enabled log records fsync
// histograms and that Stats flattens into a registry source.
func TestLogMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	l := New(Options{Mode: Group})
	l.SetMetrics(reg)
	lsn := l.Append("w", "insert into t values (?)", [][]any{{int64(1)}})
	l.Commit(lsn)
	reg.RegisterSource("wal", func() map[string]float64 { return l.Stats().Metrics() })
	l.Close()

	if s := reg.Histogram("wal.fsync.wall").Snapshot(); s.Count == 0 {
		t.Error("no wal.fsync.wall samples recorded")
	}
	if s := reg.Histogram("wal.fsync.records").Snapshot(); s.Count == 0 || s.Sum != 1 {
		t.Errorf("wal.fsync.records count=%d sum=%d, want 1 record synced", s.Count, s.Sum)
	}
	var b bytes.Buffer
	if err := reg.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b.Bytes(), []byte("avg.group")) {
		t.Errorf("dump missing wal source fields:\n%s", b.String())
	}
}

// TestCommitSpan pins that CommitWait opens and closes a wal.commit child,
// still honors the durability contract, and reports the durable LSN it saw.
func TestCommitSpan(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg)
	l := New(Options{Mode: Group})
	defer l.Close()

	sp := tr.Start("request")
	lsn := l.Append("w", "insert into t values (?)", [][]any{{int64(1)}})
	if durable, err := l.CommitWait(sp, lsn, query.Deadline{}); err != nil || durable != lsn {
		t.Fatalf("CommitWait = %d, %v; want %d, nil", durable, err, lsn)
	}
	sp.End()

	if got := l.DurableLSN(); got != lsn {
		t.Fatalf("DurableLSN = %d, want %d", got, lsn)
	}
	if tr.Open() != 0 {
		t.Fatalf("open spans = %d, want 0", tr.Open())
	}
	if s := reg.Histogram("span.wal.commit.wall").Snapshot(); s.Count != 1 {
		t.Errorf("span.wal.commit.wall count = %d, want 1", s.Count)
	}
	// Nil span: plain commit path.
	lsn = l.Append("w", "insert into t values (?)", [][]any{{int64(2)}})
	if _, err := l.CommitWait(nil, lsn, query.Deadline{}); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got != lsn {
		t.Fatalf("DurableLSN = %d, want %d", got, lsn)
	}
}
