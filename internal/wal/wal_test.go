package wal_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"repro/internal/query"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

// newKVServer builds a server with a small indexed kv table (the fixture
// snapshot/replay tests restore and compare against).
func newKVServer(t *testing.T, rows int) *server.Server {
	t.Helper()
	s := server.New(server.SYS1(), 0)
	t.Cleanup(s.Close)
	schema := storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TInt},
		storage.Column{Name: "val", Type: storage.TString},
	)
	if err := s.CreateTable("kv", schema, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := s.InsertRow("kv", []any{int64(i), fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.FinishLoad()
	if err := s.AddIndex("kv", "id", true); err != nil {
		t.Fatal(err)
	}
	return s
}

// dump renders a server's kv table byte-comparably via the query path.
func dump(t *testing.T, s *server.Server, n int) string {
	t.Helper()
	out := ""
	for i := 0; i < n; i++ {
		v, err := s.Exec(query.Req("t", "SELECT val FROM kv WHERE id = ?", []any{int64(i)})).Pair()
		out += fmt.Sprintf("%d:%v/%v\n", i, v, err)
	}
	return out
}

// replay re-executes records in LSN order on s, stopping at the first error —
// the test-side form of internal/replica's apply, which owns replay outside
// tests.
func replay(s *server.Server, recs []wal.Record) error {
	for _, r := range recs {
		for _, err := range s.ExecBatch(r.Request()).Errs {
			if err != nil {
				return fmt.Errorf("replay lsn %d: %w", r.LSN, err)
			}
		}
	}
	return nil
}

func TestGroupCommitAmortizesSyncs(t *testing.T) {
	// Hold the first fsync open until every append is buffered, so the
	// stragglers all share the second one — the amortization is then exact
	// instead of depending on scheduler timing.
	gate := &gateSyncer{entered: make(chan struct{}), release: make(chan struct{})}
	l := wal.New(wal.Options{Mode: wal.Group, Syncer: gate})
	defer l.Close()
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l.Commit(l.Append("w", "INSERT", [][]any{{int64(i)}}))
		}(i)
	}
	<-gate.entered
	for l.LastLSN() != n {
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	wg.Wait()
	st := l.Stats()
	if st.Appends != n || st.SyncedRecords != n {
		t.Fatalf("want %d appended+synced, got %+v", n, st)
	}
	if st.DurableLSN != n {
		t.Fatalf("durable LSN = %d, want %d", st.DurableLSN, n)
	}
	if st.Syncs > 2 {
		t.Fatalf("group commit did not amortize: %d syncs for %d records", st.Syncs, n)
	}
	if st.AvgGroup() <= 1 {
		t.Fatalf("AvgGroup = %v, want > 1", st.AvgGroup())
	}
}

func TestStrictModeSyncsPerRecord(t *testing.T) {
	l := wal.New(wal.Options{Mode: wal.Strict})
	defer l.Close()
	for i := 0; i < 10; i++ {
		l.Commit(l.Append("w", "INSERT", [][]any{{int64(i)}}))
	}
	st := l.Stats()
	if st.Syncs != 10 {
		t.Fatalf("strict mode: want 10 syncs, got %d", st.Syncs)
	}
}

// gateSyncer blocks the flusher inside its first fsync until released, so
// the test controls exactly which records are durable at crash time.
type gateSyncer struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateSyncer) Sync(bytes int) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
}

func TestCrashKeepsAcknowledgedUnderGroup(t *testing.T) {
	l := wal.New(wal.Options{Mode: wal.Group})
	defer l.Close()
	for i := 0; i < 5; i++ {
		l.Commit(l.Append("w", "INSERT", [][]any{{int64(i)}}))
	}
	l.Crash()
	if got := l.DurableLSN(); got != 5 {
		t.Fatalf("acknowledged writes lost: durable = %d, want 5", got)
	}
}

func TestRecordRoundTripPreservesTypes(t *testing.T) {
	r := wal.Record{LSN: 7, Name: "w", SQL: "INSERT INTO kv VALUES (?, ?)",
		ArgSets: [][]any{{int64(42), "hello"}, {int64(-1), ""}}}
	b, err := wal.EncodeRecord(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wal.DecodeRecord(b[:len(b)-1])
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", r) {
		t.Fatalf("round trip mismatch:\n  %#v\n  %#v", got, r)
	}
}

func TestSnapshotRestoreIsByteIdentical(t *testing.T) {
	src := newKVServer(t, 40)
	if _, err := src.Exec(query.Req("t", "INSERT INTO kv VALUES (?, ?)", []any{int64(40), "v40"})).Pair(); err != nil {
		t.Fatal(err)
	}
	snap := wal.Capture(src.Catalog(), 1)

	dst := server.New(server.SYS1(), 0)
	t.Cleanup(dst.Close)
	if err := snap.RestoreTo(dst); err != nil {
		t.Fatal(err)
	}
	if want, got := dump(t, src, 41), dump(t, dst, 41); want != got {
		t.Fatalf("restored state differs:\n%s\nvs\n%s", want, got)
	}
	// rid identity: the unique index must answer through the same pages.
	for _, s := range []*server.Server{src, dst} {
		if n, ok := s.IndexKeyCount("kv", "id", int64(40)); !ok || n != 1 {
			t.Fatalf("index after restore: n=%d ok=%v", n, ok)
		}
	}
}

func TestReplayAfterSnapshotRebuildsState(t *testing.T) {
	src := newKVServer(t, 10)
	l := wal.New(wal.Options{})
	defer l.Close()
	if err := l.WriteSnapshot(wal.Capture(src.Catalog(), 0)); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		if _, err := src.Exec(query.Req("t", "INSERT INTO kv VALUES (?, ?)", []any{int64(i), fmt.Sprintf("v%d", i)})).Pair(); err != nil {
			t.Fatal(err)
		}
		l.Commit(l.Append("w", "INSERT INTO kv VALUES (?, ?)", [][]any{{int64(i), fmt.Sprintf("v%d", i)}}))
	}

	dst := server.New(server.SYS1(), 0)
	t.Cleanup(dst.Close)
	snap := l.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot")
	}
	if err := snap.RestoreTo(dst); err != nil {
		t.Fatal(err)
	}
	recs, err := l.RecordsAfter(snap.LSN)
	if err != nil || len(recs) != 10 {
		t.Fatalf("records after snapshot: %d err=%v", len(recs), err)
	}
	if err := replay(dst, recs); err != nil {
		t.Fatal(err)
	}
	if want, got := dump(t, src, 20), dump(t, dst, 20); want != got {
		t.Fatalf("replayed state differs:\n%s\nvs\n%s", want, got)
	}
}

func TestCheckpointTruncatesAndInvalidatesOldTails(t *testing.T) {
	src := newKVServer(t, 5)
	l := wal.New(wal.Options{})
	defer l.Close()
	for i := 5; i < 15; i++ {
		l.Commit(l.Append("w", "INSERT INTO kv VALUES (?, ?)", [][]any{{int64(i), "x"}}))
	}
	l.SyncTo(l.LastLSN())
	if err := l.WriteSnapshot(wal.Capture(src.Catalog(), 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.RecordsAfter(3); err == nil {
		t.Fatal("tail older than the checkpoint should be invalid")
	}
	recs, err := l.RecordsAfter(8)
	if err != nil || len(recs) != 2 {
		t.Fatalf("retained suffix: %d records, err=%v (want 2, true)", len(recs), err)
	}
	if l.TailStart() != 8 {
		t.Fatalf("TailStart = %d, want 8", l.TailStart())
	}
}

func TestReplayReportsInjectedFault(t *testing.T) {
	dst := newKVServer(t, 1)
	dst.FailNext(1)
	err := replay(dst, []wal.Record{{LSN: 1, Name: "w",
		SQL: "INSERT INTO kv VALUES (?, ?)", ArgSets: [][]any{{int64(99), "x"}}}})
	if err == nil || !server.IsFault(err) {
		t.Fatalf("want injected fault through replay, got %v", err)
	}
}

func TestFileStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	src := newKVServer(t, 3)

	st, err := wal.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := wal.New(wal.Options{Store: st})
	if err := l.WriteSnapshot(wal.Capture(src.Catalog(), 0)); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 8; i++ {
		l.Commit(l.Append("w", "INSERT INTO kv VALUES (?, ?)", [][]any{{int64(i), fmt.Sprintf("v%d", i)}}))
	}
	l.Close()

	st2, err := wal.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := wal.Open(wal.Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.DurableLSN() != 5 || l2.LastLSN() != 5 {
		t.Fatalf("reopened log: durable=%d last=%d, want 5/5", l2.DurableLSN(), l2.LastLSN())
	}
	snap := l2.Snapshot()
	if snap == nil {
		t.Fatal("snapshot lost across reopen")
	}
	dst := server.New(server.SYS1(), 0)
	t.Cleanup(dst.Close)
	if err := snap.RestoreTo(dst); err != nil {
		t.Fatal(err)
	}
	recs, err := l2.RecordsAfter(snap.LSN)
	if err != nil {
		t.Fatal("reopened tail invalid")
	}
	if err := replay(dst, recs); err != nil {
		t.Fatal(err)
	}
	// appending continues after the reopened tail
	if lsn := l2.Append("w", "INSERT INTO kv VALUES (?, ?)", [][]any{{int64(8), "v8"}}); lsn != 6 {
		t.Fatalf("post-reopen LSN = %d, want 6", lsn)
	}
}

// A string that is not valid UTF-8 comes back from a FileStore cold start
// with its bytes, whether the log or the snapshot carried it: the recovered
// copy equals the primary that executed the writes.
func TestFileStoreColdStartKeepsInvalidUTF8(t *testing.T) {
	dir := t.TempDir()
	primary := newKVServer(t, 3)
	st, err := wal.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := wal.New(wal.Options{Store: st})
	insert := func(id int64, val string) {
		t.Helper()
		args := []any{id, val}
		if _, err := primary.Exec(query.Req("w", "INSERT INTO kv VALUES (?, ?)", args)).Pair(); err != nil {
			t.Fatal(err)
		}
		l.Commit(l.Append("w", "INSERT INTO kv VALUES (?, ?)", [][]any{args}))
	}
	insert(3, "bad\xff\xfe")
	if err := l.WriteSnapshot(wal.Capture(primary.Catalog(), l.DurableLSN())); err != nil {
		t.Fatal(err)
	}
	insert(4, "\xc3tail\xe2\x80")
	insert(5, "fine")
	l.Close()

	st2, err := wal.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := wal.Open(wal.Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	cold := server.New(server.SYS1(), 0)
	t.Cleanup(cold.Close)
	snap := l2.Snapshot()
	if err := snap.RestoreTo(cold); err != nil {
		t.Fatal(err)
	}
	recs, err := l2.RecordsAfter(snap.LSN)
	if err != nil || len(recs) != 2 {
		t.Fatalf("records past the snapshot: %d, err=%v; want 2", len(recs), err)
	}
	if err := replay(cold, recs); err != nil {
		t.Fatal(err)
	}
	if got, want := wal.Capture(cold.Catalog(), 0), wal.Capture(primary.Catalog(), 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("cold start differs from the primary:\n%s\nwant\n%s", dump(t, cold, 6), dump(t, primary, 6))
	}
}

// A checkpoint that dies part-way must not take durable records with it: the
// log rewrite is made to fail (wal.log.tmp exists as a directory, so it cannot
// be opened as a file) and both the live log and a reopen of the directory
// still hold every synced record past the snapshot. At the parent commit the
// rewrite truncated wal.log in place first, and those records were gone.
func TestFileStoreCheckpointIsCrashAtomic(t *testing.T) {
	dir := t.TempDir()
	src := newKVServer(t, 3)
	st, err := wal.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := wal.New(wal.Options{Store: st})
	for i := 3; i < 13; i++ {
		l.Commit(l.Append("w", "INSERT INTO kv VALUES (?, ?)", [][]any{{int64(i), fmt.Sprintf("v%d", i)}}))
	}
	if err := os.Mkdir(filepath.Join(dir, "wal.log.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(wal.Capture(src.Catalog(), 4)); err == nil {
		t.Fatal("checkpoint with an unwritable wal.log.tmp reported success")
	}
	// The failed checkpoint left the running log whole, readable from its
	// start, and appendable.
	if recs, err := l.RecordsAfter(0); err != nil || len(recs) != 10 {
		t.Fatalf("records after a failed checkpoint: %d, err=%v; want 10", len(recs), err)
	}
	l.Commit(l.Append("w", "INSERT INTO kv VALUES (?, ?)", [][]any{{int64(13), "v13"}}))
	l.Close()

	st2, err := wal.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := wal.Open(wal.Options{Store: st2})
	if err != nil {
		t.Fatalf("reopen after a failed checkpoint: %v", err)
	}
	defer l2.Close()
	snap := l2.Snapshot()
	if snap == nil || snap.LSN != 4 {
		t.Fatalf("reopened snapshot = %+v, want the one at LSN 4 (it was renamed into place)", snap)
	}
	recs, err := l2.RecordsAfter(snap.LSN)
	if err != nil || len(recs) != 7 {
		t.Fatalf("records past the snapshot after reopen: %d err=%v, want 7 (LSN 5..11)", len(recs), err)
	}
	for i, r := range recs {
		if r.LSN != int64(5+i) {
			t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, 5+i)
		}
	}
	// With the obstacle gone the same checkpoint completes and truncates.
	if err := os.Remove(filepath.Join(dir, "wal.log.tmp")); err != nil {
		t.Fatal(err)
	}
	if err := l2.WriteSnapshot(wal.Capture(src.Catalog(), 8)); err != nil {
		t.Fatal(err)
	}
	if lsn := l2.Append("w", "INSERT INTO kv VALUES (?, ?)", [][]any{{int64(14), "v14"}}); lsn != 12 {
		t.Fatalf("post-checkpoint LSN = %d, want 12", lsn)
	}
	l2.Commit(12)
	if _, recs, err := st2.Load(); err != nil || len(recs) != 4 || recs[0].LSN != 9 || recs[3].LSN != 12 {
		t.Fatalf("rewritten log holds %d records (err %v), want LSN 9..12", len(recs), err)
	}
}

// A process that died between AppendRecords and Sync leaves half a line at
// the end of wal.log. It was never synced, so never acknowledged: recovery
// drops it — and truncates it away, or the next record would land behind it.
func TestFileStoreDropsTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	open := func() *wal.Log {
		t.Helper()
		st, err := wal.NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		l, err := wal.Open(wal.Options{Store: st})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return l
	}
	appendRaw := func(b string) {
		t.Helper()
		f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(b); err != nil {
			t.Fatal(err)
		}
	}

	l := open()
	for i := 1; i <= 3; i++ {
		l.Commit(l.Append("w", "INSERT INTO kv VALUES (?, ?)", [][]any{{int64(i), "v"}}))
	}
	l.Close()
	appendRaw(`{"lsn":4,"name":"w","sql":"INSERT INTO kv VAL`)

	l = open()
	if recs, err := l.RecordsAfter(0); err != nil || len(recs) != 3 || l.LastLSN() != 3 {
		t.Fatalf("after a torn tail: %d records, err=%v, last LSN %d; want 3, true, 3", len(recs), err, l.LastLSN())
	}
	if lsn := l.Append("w", "INSERT INTO kv VALUES (?, ?)", [][]any{{int64(4), "v"}}); lsn != 4 {
		t.Fatalf("append after a torn tail got LSN %d, want 4", lsn)
	}
	l.Commit(4)
	l.Close()

	l = open()
	recs, err := l.RecordsAfter(0)
	if err != nil || len(recs) != 4 || recs[3].LSN != 4 || !reflect.DeepEqual(recs[3].ArgSets, [][]any{{int64(4), "v"}}) {
		t.Fatalf("after appending past the torn tail: %+v, err=%v; want LSNs 1..4", recs, err)
	}
	l.Close()

	// Garbage with a newline after it sits inside the durable prefix: that
	// is corruption, not a torn tail, and recovery must refuse it.
	appendRaw("{\"lsn\":5,\"name\n")
	st, err := wal.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := wal.Open(wal.Options{Store: st}); err == nil {
		t.Fatal("Open accepted a newline-terminated line that does not decode")
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want wal.Mode
	}{{"off", wal.Off}, {"group", wal.Group}, {"strict", wal.Strict}} {
		m, err := wal.ParseMode(tc.in)
		if err != nil || m != tc.want {
			t.Fatalf("ParseMode(%q) = %v, %v", tc.in, m, err)
		}
		if m.String() != tc.in {
			t.Fatalf("Mode.String() = %q, want %q", m.String(), tc.in)
		}
	}
	if _, err := wal.ParseMode("bogus"); err == nil {
		t.Fatal("want error for unknown mode")
	}
}
