package sqlmini_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/interp"
	"repro/internal/simclock"
	"repro/internal/sqlmini"
	"repro/internal/storage"
)

// FuzzParse holds Parse to its contract on any input: it returns, without a
// panic, and a statement it accepts is consistent: one literal slot per
// inserted value, and every parameter ordinal below NumParams. The seeds are
// the parse golden's statements and their mutants.
func FuzzParse(f *testing.F) {
	for _, s := range statements() {
		f.Add(s.sql)
		for _, m := range mutants(s.name, s.sql, mutantsPerStatement) {
			f.Add(m.sql)
		}
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := sqlmini.Parse(sql)
		if err != nil {
			return
		}
		if len(st.Values) != len(st.Lits) {
			t.Fatalf("%d values, %d literal slots", len(st.Values), len(st.Lits))
		}
		for _, c := range st.Where {
			if c.Param >= st.NumParams {
				t.Fatalf("WHERE %s binds parameter %d of %d", c.Col, c.Param, st.NumParams)
			}
		}
		for i, v := range st.Values {
			if v >= st.NumParams {
				t.Fatalf("value %d binds parameter %d of %d", i, v, st.NumParams)
			}
		}
	})
}

// drivenTwins builds one table twice: indexed on its int column k and its
// string column s, and index-free, so every statement scans. Key k = 0 holds
// half the rows; u is an unindexed int.
func drivenTwins(f *testing.F) (indexed, scanned *storage.Catalog, pools [2]*buffer.Pool) {
	for i := range pools {
		cat := storage.NewCatalog()
		d := disk.New(disk.DefaultParams(), simclock.New(0))
		f.Cleanup(d.Close)
		pools[i] = buffer.NewPool(1<<10, d)
		tbl := cat.CreateTable("items", storage.NewSchema(
			storage.Column{Name: "id", Type: storage.TInt},
			storage.Column{Name: "k", Type: storage.TInt},
			storage.Column{Name: "s", Type: storage.TString},
			storage.Column{Name: "u", Type: storage.TInt},
		))
		for r := int64(0); r < 300; r++ {
			k := r%7 + 1
			if r%2 == 0 {
				k = 0
			}
			if _, err := tbl.Insert([]any{r, k, fmt.Sprintf("s%d", r%5), r % 3}); err != nil {
				f.Fatal(err)
			}
		}
		if i == 1 {
			scanned = cat
			continue
		}
		for _, col := range []string{"k", "s"} {
			if err := tbl.AddIndex(col, false, cat.NextExtent(), 8); err != nil {
				f.Fatal(err)
			}
		}
		indexed = cat
	}
	return indexed, scanned, pools
}

// FuzzIndexDriven holds the index access path to the scan: a statement over
// the indexed table answers, binding by binding, what it answers over the
// index-free twin (every value, every error text, RowsReturned). The driving
// predicate is the probe alone, so this is what pins that a probe returns
// exactly the rows holding its key, for keys of every type.
//
// form picks the select list (rows, count(*), sum(u)). preds is read in
// pairs, up to three: a column (k, s, u by the byte mod 3) and a value byte,
// a parameter when its top bit is clear, else an int literal (low bit clear)
// or a string literal 's<n>' (low bit set), n = (byte>>1)&7. binds holds one
// byte per parameter value, up to 16 bindings: by the byte mod 6, an
// int64(n) (0, 1), a string "s<n>" (2, 3), the string "5" (4) or the Go int
// 5 (5), n = (byte/6)%8; so int columns meet strings and ints that are not
// int64, and the string column meets int64s.
func FuzzIndexDriven(f *testing.F) {
	const k, s, u = 0, 1, 2
	const param, quoted5, goInt5 = 0, 4, 5
	intLit := func(n byte) byte { return 0x80 | n<<1 }
	strLit := func(n byte) byte { return 0x81 | n<<1 }
	i64 := func(n byte) byte { return 6 * n }
	str := func(n byte) byte { return 6*n + 2 }
	for _, seed := range []struct {
		form         uint8
		preds, binds []byte
	}{
		// The driving key alone: the many-row key, a missing key, "5" and
		// int(5) against the int column.
		{0, []byte{k, param}, []byte{i64(0), i64(5), quoted5, goInt5, i64(0)}},
		{1, []byte{k, param}, []byte{i64(3), quoted5, goInt5}},
		// The string index: an int64 against it.
		{0, []byte{s, param}, []byte{str(1), i64(1), str(7), quoted5}},
		// The driving column repeated, with a contradicting and an equal value.
		{1, []byte{k, param, k, param}, []byte{i64(1), i64(2), i64(1), i64(1), i64(0), goInt5}},
		{0, []byte{k, intLit(2), k, param}, []byte{i64(2), i64(3), quoted5}},
		// A residual on each other column, mistyped bindings in both places.
		{2, []byte{k, param, u, param}, []byte{i64(0), i64(1), quoted5, i64(2), i64(3), goInt5}},
		{0, []byte{s, param, k, param, u, param}, []byte{str(2), i64(0), i64(2), i64(4), str(4), i64(1)}},
		// The driver is not the first predicate.
		{2, []byte{u, param, k, param}, []byte{i64(1), i64(1), i64(2), i64(0), quoted5, i64(3)}},
		// Literals only; a string literal against the int column.
		{1, []byte{k, intLit(0)}, []byte{0, 0}},
		{0, []byte{s, strLit(3), k, strLit(1)}, []byte{0}},
		// No index on the column: both sides scan.
		{1, []byte{u, param}, []byte{i64(1), quoted5}},
	} {
		f.Add(seed.form, seed.preds, seed.binds)
	}
	indexed, scanned, pools := drivenTwins(f)
	cols := [3]string{"k", "s", "u"}
	f.Fuzz(func(t *testing.T, form uint8, preds, binds []byte) {
		var where []string
		driven := false // some predicate's column is indexed
		for i := 0; i+1 < len(preds) && len(where) < 3; i += 2 {
			v := preds[i+1]
			val := "?"
			switch {
			case v&0x80 == 0:
			case v&1 == 0:
				val = fmt.Sprint((v >> 1) & 7)
			default:
				val = fmt.Sprintf("'s%d'", (v>>1)&7)
			}
			where = append(where, cols[preds[i]%3]+" = "+val)
			driven = driven || preds[i]%3 != u
		}
		if len(where) == 0 {
			return
		}
		sql := [3]string{"select id, k, s, u", "select count(*)", "select sum(u)"}[form%3] +
			" from items where " + strings.Join(where, " and ")
		st, err := sqlmini.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var argSets [][]any
		for len(argSets) < 16 && len(binds) > 0 && len(binds) >= st.NumParams {
			args := make([]any, st.NumParams)
			for j, b := range binds[:st.NumParams] {
				n := int64(b/6) % 8
				args[j] = [6]any{n, n, fmt.Sprintf("s%d", n), fmt.Sprintf("s%d", n), "5", 5}[b%6]
			}
			argSets = append(argSets, args)
			binds = binds[max(st.NumParams, 1):]
		}
		got, gotErrs, gotInfo := sqlmini.ExecuteBatch(st, indexed, pools[0], argSets)
		want, wantErrs, wantInfo := sqlmini.ExecuteBatch(st, scanned, pools[1], argSets)
		if len(argSets) > 0 && gotInfo.UsedIndex != driven {
			t.Fatalf("%s: UsedIndex %v on the indexed table", sql, gotInfo.UsedIndex)
		}
		for i, args := range argSets {
			if fmt.Sprint(gotErrs[i]) != fmt.Sprint(wantErrs[i]) {
				t.Fatalf("%s %#v: error %v, scan %v", sql, args, gotErrs[i], wantErrs[i])
			}
			g, w := got[i], want[i]
			if rs, ok := g.(*interp.RowSet); ok {
				g = rs.Rows()
			}
			if rs, ok := w.(*interp.RowSet); ok {
				w = rs.Rows()
			}
			if !interp.Equal(g, w) {
				t.Fatalf("%s %#v: %s, scan %s", sql, args, interp.Format(g), interp.Format(w))
			}
		}
		if gotInfo.RowsReturned != wantInfo.RowsReturned {
			t.Fatalf("%s: RowsReturned %d, scan %d", sql, gotInfo.RowsReturned, wantInfo.RowsReturned)
		}
	})
}
