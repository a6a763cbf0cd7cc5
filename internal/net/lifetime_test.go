package net

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/interp"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestHeldResultsAreSnapshots holds select results — whose columns alias the
// table's vectors — while inserts append rows behind them, encoding and boxing
// the held results as it goes; at the end every held result must still encode and box to exactly
// what it did when it was executed. Run it under -race: the reads of a held
// result and the appends race for real.
func TestHeldResultsAreSnapshots(t *testing.T) {
	srv := server.New(server.SYS1(), 0)
	t.Cleanup(srv.Close)
	tbl := srv.Catalog().CreateTable("t", storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TInt},
		storage.Column{Name: "name", Type: storage.TString},
		storage.Column{Name: "grp", Type: storage.TInt},
	))
	for i := int64(0); i < 40; i++ {
		if _, err := tbl.Insert([]any{i, fmt.Sprint("n", i), i % 4}); err != nil {
			t.Fatal(err)
		}
	}
	srv.FinishLoad()
	if err := srv.AddIndex("t", "grp", false); err != nil {
		t.Fatal(err)
	}

	// The inserter paces itself against the reader, one insert per round, so
	// the held results stay few enough to re-check every few rounds.
	const inserts = 300
	tick, done := make(chan struct{}, 8), make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(40); i < 40+inserts; i++ {
			<-tick
			row := []any{i, fmt.Sprint("n", i), i % 4}
			c, rep := query.Call{Request: query.Req("ins", "insert into t values (?, ?, ?)", row)}, query.Reply{}
			if srv.Do(&c, &rep); rep.Err != nil {
				t.Error(rep.Err)
				return
			}
		}
	}()

	type held struct {
		rs    *interp.RowSet
		wire  []byte
		boxed interp.Rows
	}
	var all []held
	check := func(h held) {
		t.Helper()
		if got, err := AppendValue(nil, h.rs); err != nil || !bytes.Equal(got, h.wire) {
			t.Fatalf("a held result encodes to %x (%v), was %x", got, err, h.wire)
		}
		if got := h.rs.Rows(); !interp.Equal(got, h.boxed) {
			t.Fatalf("a held result boxes to %s, was %s", interp.Format(got), interp.Format(h.boxed))
		}
	}
	for i := 0; ; i++ {
		select {
		case tick <- struct{}{}:
		default:
		}
		for _, c := range []query.Call{
			{Request: query.Req("idx", "select id, name from t where grp = ?", []any{int64(i % 4)})},
			{Request: query.Req("scan", "select * from t where name = ?", []any{fmt.Sprint("n", i%50)})},
		} {
			var rep query.Reply
			if srv.Do(&c, &rep); rep.Err != nil {
				t.Fatal(rep.Err)
			}
			rs := rep.Value.(*interp.RowSet)
			h := held{rs: rs, wire: must(t)(AppendValue(nil, rs)), boxed: rs.Rows()}
			all = append(all, h)
		}
		if i%32 == 0 {
			for _, h := range all {
				check(h)
			}
		}
		select {
		case <-done:
			for _, h := range all {
				check(h)
			}
			if tbl.NumRows() != 40+inserts {
				t.Fatalf("%d rows, want %d", tbl.NumRows(), 40+inserts)
			}
			return
		default:
		}
	}
}

// TestBatchArgWindowsAreNotRetained decodes a batch insert as a connection's
// read loop does — its bindings windows of one slab — runs it through a
// replica group (primary, write-ahead log, synchronous replica), then
// overwrites every window: the log and both copies must still hold what was
// sent, so nothing below the front door kept a window past the call.
func TestBatchArgWindowsAreNotRetained(t *testing.T) {
	g := replica.NewGroup(server.SYS1(), 0, replica.Options{Replicas: 1, Durability: wal.Group})
	t.Cleanup(g.Close)
	schema := storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TInt},
		storage.Column{Name: "note", Type: storage.TString},
	)
	src := wal.TableSource{Name: "t", Schema: schema}
	storage.NewTable("t", schema, 0).ViewInto(&src.View)
	if _, err := wal.Copy([][]*server.Server{g.Copies()}, []wal.TableSource{src}, nil); err != nil {
		t.Fatal(err)
	}

	sets := [][]any{{int64(1), "a"}, {int64(2), "b"}, {int64(3), "c"}}
	payload := must(t)(EncodeExecBatch(1, query.BatchReq("ins", "insert into t values (?, ?)", sets)))
	_, c, err := decodeOne(MsgExecBatch, payload, &stmtNames{})
	if err != nil {
		t.Fatal(err)
	}
	w0, w1 := c.ArgSets[0], c.ArgSets[1]
	if cap(w0) != len(w0) || unsafe.Pointer(&w1[0]) != unsafe.Add(unsafe.Pointer(&w0[0]), len(w0)*int(unsafe.Sizeof(w0[0]))) {
		t.Fatal("the bindings are not capacity-limited neighbours in one slab")
	}
	var rep query.Reply
	g.Do(&c, &rep)
	if err := rep.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for _, w := range c.ArgSets {
		for i := range w {
			w[i] = "overwritten"
		}
	}

	recs, err := g.Log().RecordsAfter(0)
	if err != nil || len(recs) != 1 || !interp.Equal(anySets(recs[0].ArgSets), anySets(sets)) {
		t.Fatalf("log holds %+v, want one record of %v", recs, sets)
	}
	for k, s := range g.Copies() {
		for rid, want := range sets {
			if got := s.Catalog().Table("t").Row(rid); !interp.Equal(anySets([][]any{got}), anySets([][]any{want})) {
				t.Errorf("copy %d row %d is %v, want %v", k, rid, got, want)
			}
		}
	}
}

// anySets makes argument sets one comparable value.
func anySets(sets [][]any) any {
	out := &interp.List{}
	for _, set := range sets {
		out.Items = append(out.Items, &interp.List{Items: set})
	}
	return out
}
