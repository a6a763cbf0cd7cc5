package net

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/interp"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/storage"
)

// byteSrc deals out the bytes a random table and its queries are made from:
// random ones in the property test, the fuzzer's in FuzzRowSetWire. It deals
// zeros once exhausted.
type byteSrc struct{ b []byte }

func (s *byteSrc) next() int {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return int(v)
}

// rowSetsFrom builds a table of up to four columns and eleven rows from data
// and returns what a real server answers a handful of selects over it in the
// columnar form: select *, a select list that may name a column twice, a
// predicate no row matches, and a batch whose bindings are views into one
// block. A table's columns are typed, so the last set is the table's rows
// boxed, now and then a cell made null or of the other type, and lifted
// (interp.LiftRows): the one producer of boxed columns.
func rowSetsFrom(t testing.TB, data []byte) []*interp.RowSet {
	t.Helper()
	src := &byteSrc{b: data}
	srv := server.New(server.SYS1(), 0)
	defer srv.Close()

	cols := make([]storage.Column, 1+src.next()%4)
	for i := range cols {
		// The letter decides the wire order, the digit keeps names distinct.
		cols[i] = storage.Column{Name: fmt.Sprintf("%c%d", 'a'+src.next()%26, i), Type: storage.ColType(src.next() % 2)}
	}
	tbl := srv.Catalog().CreateTable("t", storage.NewSchema(cols...))
	ints := func() any { return int64(int8(src.next())) * 1000003 }
	strs := func() any { return []string{"", "a", "naïve", "日本", "x y"}[src.next()%5] }
	var keys []any
	var mixed interp.Rows
	for r, n := 0, src.next()%12; r < n; r++ {
		row, cells := make([]any, len(cols)), make(interp.Row, len(cols))
		for i, c := range cols {
			sel := src.next() % 8
			if c.Type == storage.TInt {
				row[i] = ints()
			} else {
				row[i] = strs()
			}
			switch cells[c.Name] = row[i]; {
			case sel == 0:
				cells[c.Name] = nil
			case sel == 1 && c.Type == storage.TInt:
				cells[c.Name] = strs()
			case sel == 1:
				cells[c.Name] = ints()
			}
		}
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, row[0])
		mixed = append(mixed, cells)
	}
	srv.FinishLoad()
	if src.next()%2 == 0 {
		if err := srv.AddIndex("t", cols[0].Name, false); err != nil {
			t.Fatal(err)
		}
	}

	list := ""
	for i, n := 0, 1+src.next()%4; i < n; i++ {
		if i > 0 {
			list += ", "
		}
		list += cols[src.next()%len(cols)].Name
	}
	byKey := " from t where " + cols[0].Name + " = ?"
	sets := [][]any{{"no such key"}}
	for i := 0; i < 3 && len(keys) > 0; i++ {
		sets = append(sets, []any{keys[src.next()%len(keys)]})
	}

	var out []*interp.RowSet
	add := func(v any, err error) {
		t.Helper()
		rs, ok := v.(*interp.RowSet)
		if err != nil || !ok {
			t.Fatalf("select over %+v answered %T %v, %v; want a *interp.RowSet", cols, v, v, err)
		}
		out = append(out, rs)
	}
	for _, c := range []query.Call{
		{Request: query.Req("star", "select * from t", nil)},
		{Request: query.Req("list", "select "+list+" from t", nil)},
		{Request: query.Req("none", "select *"+byKey, sets[0])},
		query.BatchCall(query.BatchReq("batch", "select "+list+byKey, sets)),
	} {
		var rep query.Reply
		srv.Do(&c, &rep)
		if !c.Batch() {
			add(rep.Value, rep.Err)
		}
		for i := range rep.Values {
			add(rep.Values[i], rep.Errs[i])
		}
	}
	lifted, ok := interp.LiftRows(mixed)
	if !ok {
		t.Fatalf("rows of one table do not lift: %s", interp.Format(mixed))
	}
	return append(out, lifted)
}

// checkRowSetWire holds a columnar result to the codec's oracle: its bytes are
// those of the interp.Rows it boxes to, and they decode to exactly that.
func checkRowSetWire(t testing.TB, rs *interp.RowSet) {
	t.Helper()
	boxed := rs.Rows()
	want, err := AppendValue(nil, boxed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendValue(nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("columnar encoding of %s:\n got %x\nwant %x", interp.Format(boxed), got, want)
	}
	r := &reader{b: got}
	if back := r.value(); r.err != nil || len(r.b) != 0 || !interp.Equal(back, boxed) {
		t.Fatalf("decoded %s (%d bytes left, %v), want %s", interp.Format(back), len(r.b), r.err, interp.Format(boxed))
	}
	// A result that arrives boxed and is lifted again is the same result.
	lifted, ok := interp.LiftRows(boxed)
	if !ok {
		t.Fatalf("rows of one result do not lift: %s", interp.Format(boxed))
	}
	if again, _ := AppendValue(nil, lifted); !bytes.Equal(again, want) {
		t.Fatalf("lifted encoding of %s:\n got %x\nwant %x", interp.Format(boxed), again, want)
	}
}

// TestRowSetWireMatchesRows is the property the front door's unchanged bytes
// rest on: over random schemas and rows, the columnar arm of the encoder
// writes what the interp.Rows arm writes for the boxed form.
func TestRowSetWireMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(20110411))
	shapes := map[string]bool{}
	for i := 0; i < 300; i++ {
		data := make([]byte, 160)
		rng.Read(data)
		var last *interp.RowSet
		for _, rs := range rowSetsFrom(t, data) {
			checkRowSetWire(t, rs)
			if rs.N == 0 {
				shapes["no rows"] = true
			}
			if rs.N > 0 && last != nil && last.N > 0 && &last.Cols[0] == &rs.Cols[0] {
				shapes["view into a block"] = true
			}
			if rs.N > 0 && rs.Sel != nil && rs.At(rs.N-1) != rs.N-1 {
				shapes["selection skips rows"] = true
			}
			last = rs
			for _, c := range rs.Cols {
				shapes["ints"] = shapes["ints"] || (rs.N > 0 && c.Ints != nil)
				shapes["strs"] = shapes["strs"] || (rs.N > 0 && c.Strs != nil)
				shapes["boxed"] = shapes["boxed"] || (rs.N > 0 && c.Anys != nil)
				for j := 0; j < rs.N && c.Anys != nil; j++ {
					shapes["null cell"] = shapes["null cell"] || c.Anys[rs.At(j)] == nil
				}
			}
		}
	}
	for _, shape := range []string{"no rows", "view into a block", "selection skips rows", "ints", "strs", "boxed", "null cell"} {
		if !shapes[shape] {
			t.Errorf("300 random tables never produced a result with: %s", shape)
		}
	}
}

// FuzzRowSetWire holds the same oracle over the fuzzer's tables.
func FuzzRowSetWire(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 'n', 1, 'u', 0, 'r', 0, 5, 2, 7, 2, 1, 2, 9, 0, 0, 1, 3, 2, 4})
	f.Add(bytes.Repeat([]byte{1, 0, 7}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rs := range rowSetsFrom(t, data) {
			checkRowSetWire(t, rs)
		}
	})
}
