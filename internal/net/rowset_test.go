package net

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
// block. It also returns the table's rows boxed, now and then a cell made
// null, of the other type or left out: rows a backend that is not a
// query.Doer might answer, which lift to typed columns only while each column
// keeps one type (liftable).
func rowSetsFrom(t testing.TB, data []byte) ([]*interp.RowSet, interp.Rows) {
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
	var boxed interp.Rows
	for r, n := 0, src.next()%12; r < n; r++ {
		row, cells := make([]any, len(cols)), make(interp.Row, len(cols))
		for i, c := range cols {
			sel := src.next() % 16
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
			case sel == 2:
				delete(cells, c.Name)
			}
		}
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, row[0])
		boxed = append(boxed, cells)
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
	return out, boxed
}

// liftable is interp.LiftRows' oracle: rows lift when every row has the first
// one's names, there is at least one, and each column's cells are all int64
// or all strings.
func liftable(rows interp.Rows) bool {
	for _, row := range rows {
		if len(row) != len(rows[0]) || len(row) == 0 {
			return false
		}
		for name, v := range row {
			first, ok := rows[0][name]
			switch v.(type) {
			case int64, string:
			default:
				return false
			}
			if !ok || reflect.TypeOf(v) != reflect.TypeOf(first) {
				return false
			}
		}
	}
	return true
}

// checkBoxedRows holds boxed rows to the lift's oracle: rows that lift are
// encoded as their lifted set is and decode to themselves, alone or as a
// binding of a batch; rows that do not are refused by both encoders. It
// returns whether they lifted.
func checkBoxedRows(t testing.TB, rows interp.Rows) bool {
	t.Helper()
	lifted, ok := interp.LiftRows(rows)
	if ok != liftable(rows) {
		t.Fatalf("LiftRows(%s) reports %v", interp.Format(rows), ok)
	}
	got, err := AppendValue(nil, rows)
	_, batchErr := EncodeBatchResult(1, query.BatchResult{Values: []any{int64(1), rows}, Errs: make([]error, 2)})
	if !ok {
		if err == nil || batchErr == nil {
			t.Fatalf("rows that do not lift were encoded (%v, %v): %s", err, batchErr, interp.Format(rows))
		}
		return false
	}
	if err != nil || batchErr != nil {
		t.Fatalf("encoding %s: %v, %v", interp.Format(rows), err, batchErr)
	}
	if want, _ := AppendValue(nil, lifted); !bytes.Equal(got, want) {
		t.Fatalf("boxed encoding of %s:\n got %x\nwant %x", interp.Format(rows), got, want)
	}
	r := &reader{b: got}
	if back := r.value(); r.err != nil || len(r.b) != 0 || !interp.Equal(back, rows) {
		t.Fatalf("decoded %s (%d bytes left, %v), want %s", interp.Format(back), len(r.b), r.err, interp.Format(rows))
	}
	return true
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
// writes what the interp.Rows arm writes for the boxed form, and boxed rows
// that are not typed columns are refused.
func TestRowSetWireMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(20110411))
	shapes := map[string]bool{}
	for i := 0; i < 300; i++ {
		data := make([]byte, 160)
		rng.Read(data)
		var last *interp.RowSet
		sets, boxed := rowSetsFrom(t, data)
		if checkBoxedRows(t, boxed) {
			shapes["boxed rows lift"] = shapes["boxed rows lift"] || len(boxed) > 0
		} else {
			for _, row := range boxed {
				for name, v := range row {
					shapes["refused: null cell"] = shapes["refused: null cell"] || v == nil
					_, ok := boxed[0][name]
					shapes["refused: names differ"] = shapes["refused: names differ"] || len(row) != len(boxed[0]) || !ok
					shapes["refused: a column of two types"] = shapes["refused: a column of two types"] ||
						(ok && v != nil && boxed[0][name] != nil && reflect.TypeOf(v) != reflect.TypeOf(boxed[0][name]))
				}
			}
		}
		for _, rs := range sets {
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
			}
		}
	}
	for _, shape := range []string{"no rows", "view into a block", "selection skips rows", "ints", "strs",
		"boxed rows lift", "refused: null cell", "refused: names differ", "refused: a column of two types"} {
		if !shapes[shape] {
			t.Errorf("300 random tables never produced a result with: %s", shape)
		}
	}
}

// FuzzRowSetWire holds the same oracles over the fuzzer's tables: typed
// results encode as their boxed rows do, and boxed rows that do not lift are
// refused.
func FuzzRowSetWire(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 'n', 1, 'u', 0, 'r', 0, 5, 2, 7, 2, 1, 2, 9, 0, 0, 1, 3, 2, 4})
	f.Add(bytes.Repeat([]byte{1, 0, 7}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		sets, boxed := rowSetsFrom(t, data)
		for _, rs := range sets {
			checkRowSetWire(t, rs)
		}
		checkBoxedRows(t, boxed)
	})
}

// TestRowSetWithNoColumnsIsRefused: a flag-1 row set that lists no columns is
// a frame no encoder writes (rows without columns do not lift), and would
// otherwise decode into as many empty rows as it states, up to the bytes left.
// It is refused in a single reply and in a batch reply; the same bytes with
// one column listed decode.
func TestRowSetWithNoColumnsIsRefused(t *testing.T) {
	rowSet := func(cols ...string) []byte {
		b := []byte{tagRows, 3, 1, byte(len(cols))} // three rows, flag 1
		for _, c := range cols {
			b = putString(b, c)
		}
		return append(b, tagInt, 2, tagInt, 4, tagInt, 6) // one cell a row for one column
	}
	header := func(batch bool) []byte {
		b := append(make([]byte, 8), 0) // request id, no cell bytes
		if batch {
			b = append(b, 1) // one binding
		}
		return append(b, errNone)
	}
	for _, batch := range []bool{false, true} {
		decode := func(p []byte) (any, error) {
			if batch {
				_, res, err := DecodeBatchResult(p)
				if err != nil {
					return nil, err
				}
				return res.Values[0], nil
			}
			_, res, err := DecodeResult(p)
			return res.Value, err
		}
		if v, err := decode(append(header(batch), rowSet()...)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("batch %v: a row set with no columns decoded to %v, %v; want ErrBadFrame", batch, v, err)
		}
		v, err := decode(append(header(batch), rowSet("a")...))
		if rows, ok := v.(interp.Rows); err != nil || !ok || len(rows) != 3 || rows[2]["a"] != int64(3) {
			t.Errorf("batch %v: a row set with one column decoded to %v, %v; want three rows", batch, v, err)
		}
	}
}
