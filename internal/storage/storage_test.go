package storage

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func newKV(t *testing.T) *Table {
	t.Helper()
	cat := NewCatalog()
	tbl := cat.CreateTable("kv", NewSchema(
		Column{Name: "k", Type: TInt},
		Column{Name: "v", Type: TString},
	))
	return tbl
}

func TestInsertAndRow(t *testing.T) {
	tbl := newKV(t)
	rid, err := tbl.Insert([]any{int64(1), "a"})
	if err != nil || rid != 0 {
		t.Fatalf("%d %v", rid, err)
	}
	if tbl.Row(0)[1] != "a" || tbl.NumRows() != 1 {
		t.Fatal("row content")
	}
	if _, err := tbl.Insert([]any{int64(1)}); err == nil {
		t.Fatal("arity must be checked")
	}
}

func TestIndexMaintenance(t *testing.T) {
	tbl := newKV(t)
	for i := int64(0); i < 100; i++ {
		tbl.Insert([]any{i % 10, "x"})
	}
	if err := tbl.AddIndex("k", false, 1, 4); err != nil {
		t.Fatal(err)
	}
	rids, _, ok := tbl.Lookup("k", int64(3))
	if !ok || len(rids) != 10 {
		t.Fatalf("lookup: %v %v", rids, ok)
	}
	// Inserts after index creation are indexed too.
	tbl.Insert([]any{int64(3), "y"})
	rids, _, _ = tbl.Lookup("k", int64(3))
	if len(rids) != 11 {
		t.Fatalf("index not maintained: %d", len(rids))
	}
	if err := tbl.AddIndex("nope", false, 2, 4); err == nil {
		t.Fatal("bad column must error")
	}
}

func TestScanEq(t *testing.T) {
	tbl := newKV(t)
	for i := int64(0); i < 20; i++ {
		tbl.Insert([]any{i % 4, "x"})
	}
	rids, err := tbl.ScanEq("k", int64(1))
	if err != nil || len(rids) != 5 {
		t.Fatalf("%v %v", rids, err)
	}
}

func TestPaging(t *testing.T) {
	tbl := newKV(t)
	tbl.SetRowsPerPage(8)
	for i := int64(0); i < 50; i++ {
		tbl.Insert([]any{i, "x"})
	}
	if tbl.NumPages() != 7 {
		t.Fatalf("pages = %d, want 7", tbl.NumPages())
	}
	if tbl.PageOf(0) != 0 || tbl.PageOf(7) != 0 || tbl.PageOf(8) != 1 || tbl.PageOf(49) != 6 {
		t.Fatal("PageOf mapping")
	}
}

func TestCatalogExtents(t *testing.T) {
	cat := NewCatalog()
	a := cat.CreateTable("a", NewSchema(Column{Name: "x", Type: TInt}))
	b := cat.CreateTable("b", NewSchema(Column{Name: "x", Type: TInt}))
	if a.Extent == b.Extent {
		t.Fatal("extents must be distinct")
	}
	if cat.NextExtent() == a.Extent || cat.Table("a") != a || cat.Table("zz") != nil {
		t.Fatal("catalog bookkeeping")
	}
	if len(cat.Tables()) != 2 {
		t.Fatal("table listing")
	}
}

// Property: lookup after N inserts returns exactly the rows whose key
// matches, whatever the key distribution.
func TestLookupQuick(t *testing.T) {
	prop := func(keys []uint8) bool {
		tbl := newKV(t)
		if err := tbl.AddIndex("k", false, 1, 4); err != nil {
			return false
		}
		counts := map[int64]int{}
		for _, k := range keys {
			key := int64(k % 16)
			tbl.Insert([]any{key, "x"})
			counts[key]++
		}
		for key, want := range counts {
			rids, _, ok := tbl.Lookup("k", key)
			if !ok || len(rids) != want {
				return false
			}
			for _, rid := range rids {
				if tbl.Row(rid)[0] != key {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestColumnarTypedAccessors pins the unboxed accessor contract: typed
// columns expose their vectors, Row materializes the same values boxed, and
// a View snapshot stays consistent while inserts continue.
func TestColumnarTypedAccessors(t *testing.T) {
	tbl := newKV(t)
	for i := int64(0); i < 10; i++ {
		tbl.Insert([]any{i * 2, "x"})
	}
	ints, ok := tbl.ColInt(0)
	if !ok || len(ints) < 10 || ints[3] != 6 {
		t.Fatalf("ColInt: %v %v", ints, ok)
	}
	strs, ok := tbl.ColStr(1)
	if !ok || strs[0] != "x" {
		t.Fatalf("ColStr: %v %v", strs, ok)
	}
	if _, ok := tbl.ColInt(1); ok {
		t.Fatal("ColInt must refuse a string column")
	}
	if _, ok := tbl.ColStr(0); ok {
		t.Fatal("ColStr must refuse an int column")
	}

	var v View
	tbl.ViewInto(&v)
	if v.NumRows != 10 {
		t.Fatalf("view rows: %d", v.NumRows)
	}
	tbl.Insert([]any{int64(100), "y"}) // grows past the snapshot
	if v.NumRows != 10 || v.Cols[0].Ints[9] != 18 {
		t.Fatal("view must keep its snapshot bound")
	}
	if got := v.Cols[0].Any(3); got != int64(6) {
		t.Fatalf("boxed view read: %v", got)
	}
	if got := tbl.Row(3); got[0] != int64(6) || got[1] != "x" {
		t.Fatalf("Row shim: %v", got)
	}
	// Row returns a fresh slice: mutating it must not touch the table.
	r := tbl.Row(3)
	r[0] = int64(-1)
	if tbl.Row(3)[0] != int64(6) {
		t.Fatal("Row slice aliases storage")
	}
}

// TestColumnDegradation: inserting a value that mismatches the declared type
// degrades the column to boxed storage with identical read semantics — the
// permissive behaviour the row-wise heap had.
func TestColumnDegradation(t *testing.T) {
	tbl := newKV(t)
	tbl.Insert([]any{int64(1), "a"})
	tbl.Insert([]any{"oops", "b"}) // string into the int column
	tbl.Insert([]any{int64(3), "c"})
	if _, ok := tbl.ColInt(0); ok {
		t.Fatal("degraded column must refuse the typed accessor")
	}
	if tbl.Row(0)[0] != int64(1) || tbl.Row(1)[0] != "oops" || tbl.Row(2)[0] != int64(3) {
		t.Fatal("degraded column lost values")
	}
	var v View
	tbl.ViewInto(&v)
	if v.Cols[0].Anys == nil || v.Cols[0].Any(1) != "oops" {
		t.Fatal("view must expose the boxed vector for a degraded column")
	}
	// Scans and indexes still work over mixed values.
	rids, err := tbl.ScanEq("k", int64(3))
	if err != nil || len(rids) != 1 || rids[0] != 2 {
		t.Fatalf("ScanEq on degraded: %v %v", rids, err)
	}
	if err := tbl.AddIndex("k", false, 1, 4); err != nil {
		t.Fatal(err)
	}
	rids, _, ok := tbl.Lookup("k", "oops")
	if !ok || len(rids) != 1 || rids[0] != 1 {
		t.Fatalf("Lookup on degraded: %v", rids)
	}
}

// TestIndexKeyCount: the scatter planner's statistic matches the rid lists
// and tracks inserts.
func TestIndexKeyCount(t *testing.T) {
	tbl := newKV(t)
	for i := int64(0); i < 30; i++ {
		tbl.Insert([]any{i % 3, "x"})
	}
	if _, ok := tbl.IndexKeyCount("k", int64(0)); ok {
		t.Fatal("no index yet: must report !ok")
	}
	if err := tbl.AddIndex("k", false, 1, 4); err != nil {
		t.Fatal(err)
	}
	if n, ok := tbl.IndexKeyCount("k", int64(1)); !ok || n != 10 {
		t.Fatalf("key count: %d %v", n, ok)
	}
	if n, ok := tbl.IndexKeyCount("k", int64(99)); !ok || n != 0 {
		t.Fatalf("absent key count: %d %v", n, ok)
	}
	tbl.Insert([]any{int64(1), "y"})
	if n, _ := tbl.IndexKeyCount("k", int64(1)); n != 11 {
		t.Fatalf("stat not maintained on insert: %d", n)
	}
}

// TestBoxIntInterning: small boxed ints are shared, and values compare
// equal regardless of interning.
func TestBoxIntInterning(t *testing.T) {
	if BoxInt(5) != BoxInt(5) || BoxInt(5) != int64(5) {
		t.Fatal("interned box must equal a fresh box")
	}
	if BoxInt(1<<40) != int64(1<<40) {
		t.Fatal("large values box by value")
	}
	if BoxInt(-3) != int64(-3) {
		t.Fatal("negative values box by value")
	}
}

// TestBucketOfMatchesFormattedHash pins the bucket page of every kind of key
// to what hashing its "%v" form gives — the one definition there was before
// int64 and string keys took a route that does not format. The simulated page
// ids, and with them every buffer-hit and disk-time figure, rest on it.
func TestBucketOfMatchesFormattedHash(t *testing.T) {
	formatted := func(v any, pages int) int {
		s := fmt.Sprintf("%v", v)
		var h uint64 = 14695981039346656037
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		return int(h % uint64(pages))
	}
	keys := []any{
		int64(0), int64(7), int64(-1), int64(-987654321), int64(8191), int64(8192),
		int64(math.MaxInt64), int64(math.MinInt64),
		"", "a", "user42", "naïve café", "日本語", "with\x00nul", "%v",
		true, false, nil, int32(5), 3.5,
	}
	for _, k := range keys {
		for _, pages := range []int{1, 2, 7, 64, 3125} {
			if got, want := bucketOf(k, pages), formatted(k, pages); got != want {
				t.Errorf("bucketOf(%#v, %d) = %d, want %d", k, pages, got, want)
			}
		}
	}
	if got := bucketOf(int64(3), 0); got != 0 {
		t.Errorf("no bucket pages: bucket %d, want 0", got)
	}
	if n := testing.AllocsPerRun(100, func() { bucketOf(int64(-987654321), 64); bucketOf("user42", 64) }); n != 0 {
		t.Errorf("hashing an int64 and a string key allocates %.0f objects, want 0", n)
	}
}
