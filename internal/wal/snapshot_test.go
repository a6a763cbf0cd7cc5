package wal_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

// snapshotFixture is a server holding every shape a snapshot carries: an
// indexed table whose strings need JSON escaping and whose keys reach both
// int64 limits, an empty indexed table on the default page fanout, and a
// table indexed on its string column only.
func snapshotFixture(t *testing.T) *server.Server {
	t.Helper()
	s := server.New(server.SYS1(), 0)
	t.Cleanup(s.Close)
	schema := storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TInt},
		storage.Column{Name: "val", Type: storage.TString},
	)
	for _, tb := range []struct {
		name string
		rpp  int
	}{{"kv", 8}, {"empty", 0}, {"mixed", 3}} {
		if err := s.CreateTable(tb.name, schema, tb.rpp); err != nil {
			t.Fatal(err)
		}
	}
	vals := []string{"plain", `quote " and \ slash`, "<tag>&amp;", "tab\tnewline\n", "日本 \u2028", ""}
	rows := [][]any{{int64(math.MinInt64), "min"}, {int64(math.MaxInt64), "max"}}
	for i := 0; i < 40; i++ {
		rows = append(rows, []any{int64(i*37 - 500), vals[i%len(vals)]})
	}
	for _, row := range rows {
		if err := s.InsertRow("kv", row); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := s.InsertRow("mixed", []any{int64(i), fmt.Sprintf("m%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.FinishLoad()
	for _, ix := range []struct {
		table, col string
		unique     bool
	}{{"kv", "id", true}, {"kv", "val", false}, {"empty", "id", true}, {"mixed", "val", false}} {
		if err := s.AddIndex(ix.table, ix.col, ix.unique); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// testdata/snapshot.json was written by the row-form snapshot encoder this
// one replaced (every row boxed, then encoded) from snapshotFixture at LSN 7,
// when a column still took a value of another type: its mixed.id holds the
// string "four" where snapshotFixture now inserts 4. A snapshot encoded
// straight from the tables' views must be that file byte for byte, with that
// one cell the int, and must load back into the state it was taken from.
func TestFileStoreSnapshotBytesUnchanged(t *testing.T) {
	src := snapshotFixture(t)
	dir := t.TempDir()
	st, err := wal.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.WriteSnapshot(wal.Capture(src.Catalog(), 7)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want = bytes.Replace(want, []byte(`[{"s":"four"},`), []byte(`[{"i":4},`), 1); !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes differ from the row-form encoder's\n got %s\nwant %s", got, want)
	}
	snap, _, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	dst := server.New(server.SYS1(), 0)
	defer dst.Close()
	if err := snap.RestoreTo(dst); err != nil {
		t.Fatal(err)
	}
	if g, w := wal.Capture(dst.Catalog(), 7), wal.Capture(src.Catalog(), 7); !reflect.DeepEqual(g, w) {
		t.Fatalf("state loaded from the file differs from the state captured:\n got %+v\nwant %+v", g, w)
	}
}

// A FileStore snapshot is decoded through Insert, so a cell that is not of its
// column's type fails Load: testdata/snapshot.json, as the row-form encoder
// wrote it, holds the string "four" in the int column mixed.id.
func TestFileStoreLoadRejectsMistypedCell(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := wal.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap, _, err := st.Load()
	if want := `wal: snapshot: storage: mixed: column "id" holds int64, not string`; err == nil || err.Error() != want {
		t.Fatalf("Load of a string cell in an int column: snapshot %v, error %v; want %q", snap != nil, err, want)
	}
}

// A snapshot is a view of the live table's vectors, not a copy: it must not
// change when the table grows past its cutoff — into spare capacity and by
// reallocation.
func TestSnapshotIsImmutable(t *testing.T) {
	src := newKVServer(t, 40)
	kv := src.Catalog().Table("kv")
	var want [][]any
	for rid := 0; rid < kv.NumRows(); rid++ {
		want = append(want, kv.Row(rid))
	}
	snap := wal.Capture(src.Catalog(), 0)
	for i := 41; i < 1041; i++ {
		if err := src.InsertRow("kv", []any{int64(i), fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	dst := server.New(server.SYS1(), 0)
	defer dst.Close()
	if err := snap.RestoreTo(dst); err != nil {
		t.Fatal(err)
	}
	restored := dst.Catalog().Table("kv")
	var got [][]any
	for rid := 0; rid < restored.NumRows(); rid++ {
		got = append(got, restored.Row(rid))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %d rows, want the %d captured:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	if n, ok := dst.IndexKeyCount("kv", "id", int64(40)); !ok || n != 0 {
		t.Fatalf("restored index holds a key inserted after the capture: n=%d ok=%v", n, ok)
	}
}
