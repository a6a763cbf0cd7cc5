package sqlmini

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/interp"
	"repro/internal/simclock"
	"repro/internal/storage"
)

func TestParseSelectAgg(t *testing.T) {
	st, err := Parse("select count(partkey) from part where p_category = ?")
	if err != nil {
		t.Fatal(err)
	}
	if st.Insert || st.Agg != AggCount || st.AggCol != "partkey" || st.Table != "part" {
		t.Fatalf("%+v", st)
	}
	if len(st.Where) != 1 || st.Where[0].Col != "p_category" || st.Where[0].Param != 0 {
		t.Fatalf("where: %+v", st.Where)
	}
	if st.NumParams != 1 {
		t.Fatalf("params: %d", st.NumParams)
	}
}

func TestParseSelectCols(t *testing.T) {
	st, err := Parse("select nickname, rating from users where uid = ? and rating = 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cols) != 2 || st.Cols[0] != "nickname" {
		t.Fatalf("%+v", st)
	}
	if len(st.Where) != 2 || st.Where[1].Lit != int64(5) || st.Where[1].Param != -1 {
		t.Fatalf("where: %+v", st.Where)
	}
}

func TestParseStar(t *testing.T) {
	st, err := Parse("select * from t")
	if err != nil || st.Cols[0] != "*" || len(st.Where) != 0 {
		t.Fatalf("%+v %v", st, err)
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("insert into forms values (?, ?, 7)")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Insert || st.NumParams != 2 || len(st.Values) != 3 || st.Lits[2] != int64(7) {
		t.Fatalf("%+v", st)
	}
}

func TestParseErrors(t *testing.T) {
	for _, sql := range []string{
		"", "delete from t", "select from t", "select a from",
		"select a from t where", "insert into t", "select max(*) from t",
		"select a from t where b > ?",
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("expected error for %q", sql)
		}
	}
}

func testEnv(t *testing.T) (*storage.Catalog, *buffer.Pool, func()) {
	t.Helper()
	cat := storage.NewCatalog()
	d := disk.New(disk.DefaultParams(), simclock.New(0))
	pool := buffer.NewPool(1<<12, d)
	tbl := cat.CreateTable("part", storage.NewSchema(
		storage.Column{Name: "partkey", Type: storage.TInt},
		storage.Column{Name: "p_category", Type: storage.TInt},
		storage.Column{Name: "psize", Type: storage.TInt},
	))
	for i := int64(0); i < 1000; i++ {
		if _, err := tbl.Insert([]any{i, i % 10, i % 50}); err != nil {
			t.Fatal(err)
		}
	}
	pool.MapExtent(tbl.Extent, 0)
	if err := tbl.AddIndex("p_category", false, cat.NextExtent(), 4); err != nil {
		t.Fatal(err)
	}
	return cat, pool, func() { d.Close() }
}

// asValue is a result in the interpreter's vocabulary: a row result as the
// interp.Rows the layers' public Exec returns it as (query.Reply.Result).
func asValue(v any) any {
	if rs, ok := v.(*interp.RowSet); ok {
		return rs.Rows()
	}
	return v
}

func exec(t *testing.T, cat *storage.Catalog, pool *buffer.Pool, sql string, args ...any) (any, ExecInfo) {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	v, info, err := Execute(st, cat, pool, args)
	if err != nil {
		t.Fatal(err)
	}
	return asValue(v), info
}

func TestExecuteCountWithIndex(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	v, info := exec(t, cat, pool, "select count(partkey) from part where p_category = ?", int64(3))
	if v != int64(100) {
		t.Fatalf("count = %v, want 100", v)
	}
	if !info.UsedIndex || info.FullScan {
		t.Fatalf("expected index path: %+v", info)
	}
}

func TestExecuteAggregates(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	if v, _ := exec(t, cat, pool, "select max(psize) from part where p_category = ?", int64(0)); v != int64(40) {
		t.Fatalf("max = %v", v)
	}
	if v, _ := exec(t, cat, pool, "select min(psize) from part where p_category = ?", int64(0)); v != int64(0) {
		t.Fatalf("min = %v", v)
	}
	if v, _ := exec(t, cat, pool, "select sum(psize) from part where p_category = ?", int64(0)); v != int64(2000) {
		t.Fatalf("sum = %v", v)
	}
}

func TestExecuteFullScanWithoutIndex(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	v, info := exec(t, cat, pool, "select count(partkey) from part where psize = ?", int64(7))
	if v != int64(20) {
		t.Fatalf("count = %v", v)
	}
	if !info.FullScan {
		t.Fatalf("expected full scan: %+v", info)
	}
}

func TestExecuteRowsProjection(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	v, _ := exec(t, cat, pool, "select partkey, psize from part where p_category = ?", int64(9))
	rows, ok := v.(interp.Rows)
	if !ok || len(rows) != 100 {
		t.Fatalf("rows: %T %v", v, v)
	}
	if _, ok := rows[0]["partkey"]; !ok {
		t.Fatal("missing projected column")
	}
	if _, ok := rows[0]["p_category"]; ok {
		t.Fatal("unprojected column leaked")
	}
}

func TestExecuteInsert(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	before := cat.Table("part").NumRows()
	exec(t, cat, pool, "insert into part values (?, ?, ?)", int64(9999), int64(3), int64(1))
	if cat.Table("part").NumRows() != before+1 {
		t.Fatal("row not inserted")
	}
	// The index sees the new row.
	v, _ := exec(t, cat, pool, "select count(partkey) from part where p_category = ?", int64(3))
	if v != int64(101) {
		t.Fatalf("index not maintained: %v", v)
	}
}

func TestExecuteErrors(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	st, _ := Parse("select count(x) from nosuch where a = ?")
	if _, _, err := Execute(st, cat, pool, []any{int64(1)}); err == nil {
		t.Error("missing table must error")
	}
	st, _ = Parse("select count(partkey) from part where nocol = ?")
	if _, _, err := Execute(st, cat, pool, []any{int64(1)}); err == nil {
		t.Error("missing column must error")
	}
	st, _ = Parse("select count(partkey) from part where p_category = ?")
	if _, _, err := Execute(st, cat, pool, nil); err == nil {
		t.Error("parameter arity must be checked")
	}
}

// execBatch parses and batch-executes one statement.
func execBatch(t *testing.T, cat *storage.Catalog, pool *buffer.Pool, sql string, argSets [][]any) ([]any, []error, ExecInfo) {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	vals, errs, info := ExecuteBatch(st, cat, pool, argSets)
	return vals, errs, info
}

// TestExecuteBatchMatchesExecute pins the batched path to the per-query
// path: every binding's result and error text must be identical.
func TestExecuteBatchMatchesExecute(t *testing.T) {
	cases := []struct {
		sql     string
		argSets [][]any
	}{
		{"select count(partkey) from part where p_category = ?",
			[][]any{{int64(0)}, {int64(3)}, {int64(3)}, {int64(42)}}},
		{"select max(psize) from part where p_category = ?",
			[][]any{{int64(0)}, {int64(9)}}},
		{"select partkey, psize from part where p_category = ?",
			[][]any{{int64(1)}, {int64(2)}}},
		{"select count(partkey) from part where psize = ?", // full scan
			[][]any{{int64(7)}, {int64(8)}, {int64(7)}}},
		{"select count(partkey) from part where p_category = ?", // arity error mixed in
			[][]any{{int64(1)}, {}, {int64(2)}}},
		{"select count(partkey) from part where nocol = ?", // per-binding column error
			[][]any{{int64(1)}, {int64(2)}}},
	}
	for _, c := range cases {
		cat, pool, done := testEnv(t)
		st, err := Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		vals, errs, _ := ExecuteBatch(st, cat, pool, c.argSets)
		for i, args := range c.argSets {
			wantV, _, wantErr := Execute(st, cat, pool, args)
			if (errs[i] == nil) != (wantErr == nil) {
				t.Errorf("%s binding %d: err %v, want %v", c.sql, i, errs[i], wantErr)
				continue
			}
			if wantErr != nil {
				if errs[i].Error() != wantErr.Error() {
					t.Errorf("%s binding %d: error text %q, want %q", c.sql, i, errs[i], wantErr)
				}
				continue
			}
			if got, want := asValue(vals[i]), asValue(wantV); !interp.Equal(got, want) {
				t.Errorf("%s binding %d: %v, want %v", c.sql, i,
					interp.Format(got), interp.Format(want))
			}
		}
		done()
	}
}

// TestExecuteBatchSharesIndexPages asserts the set-oriented saving: probing
// with duplicate keys touches each bucket/data page once for the batch, so
// the cold-cache miss count equals that of a single per-query execution.
func TestExecuteBatchSharesIndexPages(t *testing.T) {
	catA, poolA, doneA := testEnv(t)
	defer doneA()
	_, infoSingle := exec(t, catA, poolA, "select count(partkey) from part where p_category = ?", int64(3))
	_, missesSingle := poolA.Stats()

	catB, poolB, doneB := testEnv(t)
	defer doneB()
	_, errs, infoBatch := execBatch(t, catB, poolB,
		"select count(partkey) from part where p_category = ?",
		[][]any{{int64(3)}, {int64(3)}, {int64(3)}})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("binding %d: %v", i, err)
		}
	}
	if infoBatch.PagesTouched != infoSingle.PagesTouched {
		t.Fatalf("batch touched %d pages, want %d (shared probes)",
			infoBatch.PagesTouched, infoSingle.PagesTouched)
	}
	if _, misses := poolB.Stats(); misses != missesSingle {
		t.Fatalf("batch missed %d pages, single query missed %d", misses, missesSingle)
	}
	if infoBatch.RowsExamined != 3*infoSingle.RowsExamined {
		t.Fatalf("rows examined %d, want %d", infoBatch.RowsExamined, 3*infoSingle.RowsExamined)
	}
}

// TestExecuteBatchSharedScan: a full-scan statement scans the table once for
// the whole batch, not once per binding.
func TestExecuteBatchSharedScan(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	pages := cat.Table("part").NumPages()
	vals, errs, info := execBatch(t, cat, pool,
		"select count(partkey) from part where psize = ?",
		[][]any{{int64(7)}, {int64(8)}, {int64(9)}})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("binding %d: %v", i, err)
		}
	}
	if info.PagesTouched != pages {
		t.Fatalf("batch touched %d pages, want one shared scan of %d", info.PagesTouched, pages)
	}
	if !info.FullScan || info.UsedIndex {
		t.Fatalf("expected full scan: %+v", info)
	}
	if vals[0] != int64(20) || vals[1] != int64(20) || vals[2] != int64(20) {
		t.Fatalf("partitioned counts: %v", vals)
	}
}

// TestExecuteBatchInsert: inserts execute per binding but still come back in
// order with the usual row-count results.
func TestExecuteBatchInsert(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	before := cat.Table("part").NumRows()
	vals, errs, _ := execBatch(t, cat, pool, "insert into part values (?, ?, ?)",
		[][]any{
			{int64(5000), int64(3), int64(1)},
			{int64(5001), int64(3), int64(2)},
		})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("binding %d: %v", i, err)
		}
	}
	if vals[0] != int64(1) || vals[1] != int64(1) {
		t.Fatalf("insert results: %v", vals)
	}
	if cat.Table("part").NumRows() != before+2 {
		t.Fatal("rows not inserted")
	}
}

// TestExecuteBatchMissingTable: every binding reports the same error the
// per-query path would.
func TestExecuteBatchMissingTable(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	st, _ := Parse("select count(x) from nosuch where a = ?")
	_, errs, _ := ExecuteBatch(st, cat, pool, [][]any{{int64(1)}, {int64(2)}})
	_, _, want := Execute(st, cat, pool, []any{int64(1)})
	for i, err := range errs {
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("binding %d: %v, want %v", i, err, want)
		}
	}
}

// TestExecuteBatchAllFailedTouchesNoPages: a batch whose every binding fails
// validation must not scan or fault pages — matching N failing per-query
// executions.
func TestExecuteBatchAllFailedTouchesNoPages(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	st, err := Parse("select count(partkey) from part where psize = ?") // no index: would full-scan
	if err != nil {
		t.Fatal(err)
	}
	_, errs, info := ExecuteBatch(st, cat, pool, [][]any{{}, {}}) // arity errors
	for i, e := range errs {
		if e == nil {
			t.Fatalf("binding %d: want arity error", i)
		}
	}
	if info.PagesTouched != 0 || info.FullScan {
		t.Fatalf("all-failed batch did IO: %+v", info)
	}
	if hits, misses := pool.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("pool touched: %d hits, %d misses", hits, misses)
	}
}

// TestExecuteBatchFailedBindingChargesNoRows: bindings that error after the
// access path (e.g. a bad projection column) must not contribute to the
// aggregate row accounting, matching the per-query path where a failing
// Execute charges nothing.
func TestExecuteBatchFailedBindingChargesNoRows(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	st, err := Parse("select nocol from part where p_category = ?")
	if err != nil {
		t.Fatal(err)
	}
	_, errs, info := ExecuteBatch(st, cat, pool, [][]any{{int64(1)}, {int64(2)}})
	for i, e := range errs {
		if e == nil {
			t.Fatalf("binding %d: want projection error", i)
		}
	}
	if info.RowsExamined != 0 || info.RowsReturned != 0 {
		t.Fatalf("failed bindings charged rows: %+v", info)
	}
}

// TestExecInfoMatchedIsOwned pins the Matched ownership contract: the rid
// trace Execute returns never aliases pooled or execution-internal storage,
// so a caller (the shard router's merge) mutating it cannot corrupt the
// index or any later execution. For a row select the owned trace is the
// result's selection vector (interp.RowSet.Sel), so the caller boxes its
// result before scribbling: what the mutation may change is only its own.
func TestExecInfoMatchedIsOwned(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	st, err := Parse("select partkey from part where p_category = ?")
	if err != nil {
		t.Fatal(err)
	}
	v1, info1, err := Execute(st, cat, pool, []any{int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(info1.Matched) != 100 {
		t.Fatalf("matched %d rids, want 100", len(info1.Matched))
	}
	if rs := v1.(*interp.RowSet); &rs.Sel[0] != &info1.Matched[0] {
		t.Fatal("a row select's Matched is not its result's selection vector")
	}
	v1 = asValue(v1)
	for i := range info1.Matched {
		info1.Matched[i] = -999 // scribble all over the trace
	}
	v2, info2, err := Execute(st, cat, pool, []any{int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if v2 = asValue(v2); !interp.Equal(v1, v2) {
		t.Fatalf("re-execution diverged after mutating Matched:\n%s\nvs\n%s",
			interp.Format(v1), interp.Format(v2))
	}
	for i, rid := range info2.Matched {
		if rid < 0 {
			t.Fatalf("Matched[%d] = %d: trace aliases mutated storage", i, rid)
		}
	}
	// The full-scan and insert traces are owned too.
	_, infoScan, err := Execute(mustParse(t, "select partkey from part where psize = ?"), cat, pool, []any{int64(7)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range infoScan.Matched {
		infoScan.Matched[i] = -1
	}
	_, infoIns, err := Execute(mustParse(t, "insert into part values (?, ?, ?)"), cat, pool,
		[]any{int64(7777), int64(3), int64(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(infoIns.Matched) != 1 || infoIns.Matched[0] < 0 {
		t.Fatalf("insert trace: %v", infoIns.Matched)
	}
	// ExecuteBatch leaves Matched unset (batch traces are not merged).
	_, _, infoBatch := ExecuteBatch(st, cat, pool, [][]any{{int64(3)}})
	if infoBatch.Matched != nil {
		t.Fatalf("batch Matched must be unset, got %v", infoBatch.Matched)
	}
}

func mustParse(t *testing.T, sql string) *Stmt {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestConcurrentExecuteSharedScratch hammers Execute/ExecuteBatch from many
// goroutines over one catalog — under -race this guards the pooled scratch,
// the statement plan cache and the storage views against cross-request
// leakage.
func TestConcurrentExecuteSharedScratch(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	stIdx := mustParse(t, "select count(partkey) from part where p_category = ?")
	stScan := mustParse(t, "select partkey, psize from part where psize = ?")
	stIns := mustParse(t, "insert into part values (?, ?, ?)")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if v, _, err := Execute(stIdx, cat, pool, []any{int64(3)}); err != nil {
					t.Errorf("idx: %v", err)
				} else if v.(int64) < 100 {
					t.Errorf("idx count shrank: %v", v)
				}
				if _, _, err := Execute(stScan, cat, pool, []any{int64(g)}); err != nil {
					t.Errorf("scan: %v", err)
				}
				if g == 0 {
					if _, _, err := Execute(stIns, cat, pool, []any{int64(20000 + i), int64(3), int64(1)}); err != nil {
						t.Errorf("insert: %v", err)
					}
				}
				if i%10 == 0 {
					_, errs, _ := ExecuteBatch(stIdx, cat, pool, [][]any{{int64(1)}, {int64(2)}, {int64(3)}})
					for _, err := range errs {
						if err != nil {
							t.Errorf("batch: %v", err)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentInsertWithIndexedSelect pins the snapshot-ordering fix: the
// view snapshot is taken after the index probe, so an insert landing between
// them can never yield candidate rids past the snapshot (which used to panic
// the typed filter). Run with high iteration counts to cross the window.
func TestConcurrentInsertWithIndexedSelect(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	stSel := mustParse(t, "select count(partkey) from part where p_category = ?")
	stRows := mustParse(t, "select partkey from part where p_category = ?")
	stIns := mustParse(t, "insert into part values (?, ?, ?)")
	// The inserter paces itself against the selects (one insert per tick):
	// an unthrottled inserter grows the p_category=3 rid list without bound
	// and turns every select into an ever-longer scan.
	tick := make(chan struct{}, 64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for range tick {
			if _, _, err := Execute(stIns, cat, pool, []any{int64(30000 + i), int64(3), int64(1)}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			i++
		}
	}()
	for i := 0; i < 2000; i++ {
		tick <- struct{}{}
		if v, _, err := Execute(stSel, cat, pool, []any{int64(3)}); err != nil {
			t.Fatalf("select: %v", err)
		} else if v.(int64) < 100 {
			t.Fatalf("count shrank: %v", v)
		}
		if _, _, err := Execute(stRows, cat, pool, []any{int64(3)}); err != nil {
			t.Fatalf("rows: %v", err)
		}
		if i%100 == 0 {
			_, errs, _ := ExecuteBatch(stSel, cat, pool, [][]any{{int64(3)}, {int64(3)}})
			for _, err := range errs {
				if err != nil {
					t.Fatalf("batch: %v", err)
				}
			}
		}
	}
	close(tick)
	wg.Wait()
}

// TestUnknownSelectColumnNeedsAMatch pins when a select list that names an
// unknown column fails: only for a binding that matched at least one row (the
// projection is what resolves the name), with the first unknown name in list
// order in the text, and identically through Execute and ExecuteBatch. A
// binding that matched nothing answers with no rows.
func TestUnknownSelectColumnNeedsAMatch(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	for _, c := range []struct{ list, unknown string }{
		{"partkey, nosuch", "nosuch"},
		{"nosuch, partkey, alsonot", "nosuch"},
		{"alsonot, alsonot, nosuch", "alsonot"},
	} {
		st, err := Parse("select " + c.list + " from part where p_category = ?")
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("sqlmini: part: no column %q", c.unknown)
		hit, miss := []any{int64(3)}, []any{int64(999)}

		v, info, err := Execute(st, cat, pool, miss)
		if rows, ok := asValue(v).(interp.Rows); err != nil || !ok || len(rows) != 0 || info.RowsReturned != 0 {
			t.Errorf("select %s, no match: %v, %v (%d returned); want no rows", c.list, v, err, info.RowsReturned)
		}
		if v, _, err := Execute(st, cat, pool, hit); err == nil || err.Error() != want || v != nil {
			t.Errorf("select %s, 100 matches: %v, %v; want error %q", c.list, v, err, want)
		}

		vals, errs, agg := ExecuteBatch(st, cat, pool, [][]any{miss, hit, miss, hit})
		for i, matches := range []bool{false, true, false, true} {
			rows, ok := asValue(vals[i]).(interp.Rows)
			switch {
			case matches && (errs[i] == nil || errs[i].Error() != want || vals[i] != nil):
				t.Errorf("select %s, batch binding %d: %v, %v; want error %q", c.list, i, vals[i], errs[i], want)
			case !matches && (errs[i] != nil || !ok || len(rows) != 0):
				t.Errorf("select %s, batch binding %d: %v, %v; want no rows", c.list, i, vals[i], errs[i])
			}
		}
		// A failed binding charges no rows, like a failed Execute.
		if agg.RowsExamined != 0 || agg.RowsReturned != 0 {
			t.Errorf("select %s: batch accounted %d examined, %d returned; the only matches failed", c.list, agg.RowsExamined, agg.RowsReturned)
		}
	}
}

// TestDuplicateSelectColumnIsOneColumn: a row is keyed by column name, so a
// name listed twice is one column of the result, as it was one key of the map.
func TestDuplicateSelectColumnIsOneColumn(t *testing.T) {
	cat, pool, done := testEnv(t)
	defer done()
	st, err := Parse("select psize, partkey, psize from part where p_category = ?")
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := Execute(st, cat, pool, []any{int64(3)})
	rs, ok := v.(*interp.RowSet)
	if err != nil || !ok || rs.N != 100 {
		t.Fatalf("%v, %v; want a 100-row *interp.RowSet", v, err)
	}
	if got := fmt.Sprint(rs.Header.Names); got != "[psize partkey]" {
		t.Errorf("columns %s, want [psize partkey]", got)
	}
	if got := interp.Format(rs.Rows()[1]); got != "{partkey=13, psize=13}" {
		t.Errorf("second row %s, want {partkey=13, psize=13}", got)
	}
}
