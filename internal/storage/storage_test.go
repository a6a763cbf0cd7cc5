package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
	"time"
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

// Lookup is Probe of one key by column name, the per-key form the tests read
// an index through: the row ids matching value and the bucket page touched.
// ok is false when no index exists on the column.
func (t *Table) Lookup(column string, value any) (rids []int, bucketPage int, ok bool) {
	ix := t.Index(column)
	if ix == nil {
		return nil, 0, false
	}
	var p Probed
	t.Probe(ix, []any{value}, &p)
	return p.Key(0), p.Buckets[0], true
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
	var v View
	tbl.ViewInto(&v)
	if v.NumRows != 10 {
		t.Fatalf("view rows: %d", v.NumRows)
	}
	if k := &v.Cols[0]; len(k.Ints) < 10 || k.Ints[3] != 6 || k.Strs != nil {
		t.Fatalf("int column view: %+v", k)
	}
	if c := &v.Cols[1]; c.Strs[0] != "x" || c.Ints != nil {
		t.Fatalf("string column view: %+v", c)
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

// TestInsertRejectsMistypedValue: a column holds values of its declared type
// only. A row with a value of another type — nil, a bool, an int where a
// string goes or a string where an int goes — in its first, middle or last
// cell is an error naming the table, the column and the value's type, and it
// leaves the row count, every column and every index as they were: the next
// good row lands at the next rid.
func TestInsertRejectsMistypedValue(t *testing.T) {
	tbl := NewTable("t", NewSchema(
		Column{Name: "a", Type: TInt},
		Column{Name: "b", Type: TString},
		Column{Name: "c", Type: TInt},
	), 0)
	good := func(i int) []any { return []any{int64(i % 7), "b" + strconv.Itoa(i%5), int64(i)} }
	for i := 0; i < 20; i++ {
		if _, err := tbl.Insert(good(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"a", "b", "c"} {
		if err := tbl.AddIndex(col, col == "c", 1, 4); err != nil {
			t.Fatal(err)
		}
	}
	state := func() (View, []map[any][]int) {
		var v View
		tbl.ViewInto(&v) // every column's vector at its full length
		var ixs []map[any][]int
		for _, ix := range tbl.Indexes() {
			ixs = append(ixs, lists(ix))
		}
		return v, ixs
	}
	next := 20
	for pos, col := range tbl.Schema.Cols {
		for _, bad := range []any{nil, true, 2.5, int(3), "s", int64(4)} {
			if col.Type.fits(bad) {
				continue
			}
			beforeV, beforeIx := state()
			row := good(next)
			row[pos] = bad
			rid, err := tbl.Insert(row)
			wantErr := fmt.Sprintf("storage: t: column %q holds %s, not %T", col.Name, []string{"int64", "string"}[col.Type], bad)
			if err == nil || err.Error() != wantErr {
				t.Fatalf("insert of %#v: rid %d, error %v; want %q", row, rid, err, wantErr)
			}
			if afterV, afterIx := state(); !reflect.DeepEqual(afterV, beforeV) || !reflect.DeepEqual(afterIx, beforeIx) {
				t.Fatalf("rejected insert of %#v changed the table:\n got %+v %v\nwant %+v %v", row, afterV, afterIx, beforeV, beforeIx)
			}
			if rid, err := tbl.Insert(good(next)); err != nil || rid != next {
				t.Fatalf("good row after a rejected one: rid %d, %v; want rid %d", rid, err, next)
			}
			next++
		}
	}
	if rids, _, _ := tbl.Lookup("c", int64(next-1)); len(rids) != 1 || rids[0] != next-1 {
		t.Fatalf("index on c after the rejections: %v, want [%d]", rids, next-1)
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

// testSeed resolves a randomized test's seed: ASYNCQ_SEED when set, the
// clock otherwise. It is logged, so a failure prints what reproduces it.
func testSeed(t *testing.T) int64 {
	seed, err := strconv.ParseInt(os.Getenv("ASYNCQ_SEED"), 10, 64)
	if err != nil || seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d (reproduce with ASYNCQ_SEED=%d go test -run %s ./internal/storage/)", seed, seed, t.Name())
	return seed
}

// TestModelIndexMatchesBoxedMap holds the typed index to the map[any][]int it
// replaced: a seeded load of keys — of the column's type, then of every type
// (int64(5), int(5), "5" and nil are four keys under interface equality) —
// with the index added before the load and mid-load, before or after the
// first key of another type is offered. Insert rejects such a key and the
// rows it accepts keep consecutive rids. Lookup, the set probe and
// IndexKeyCount, probed with keys of every type, must answer as one boxed map
// of the accepted rows does, rid for rid.
func TestModelIndexMatchesBoxedMap(t *testing.T) {
	seed := testSeed(t)
	const rows = 400
	mixed := []any{int64(5), int(5), "5", nil, int32(5), 2.5, true, "", int64(-1)}
	for _, kind := range []ColType{TInt, TString} {
		for _, tc := range []struct {
			name           string
			indexAt, mixAt int // offers; mixAt > rows: never a key of another type
		}{
			{"indexed empty, never degrades", 0, rows + 1},
			{"indexed mid-load, never degrades", 150, rows + 1},
			{"mistyped keys after AddIndex", 100, 250},
			{"mistyped keys mid-load, then indexed", 250, 100},
			{"mistyped key on the first row", 50, 0},
		} {
			t.Run(fmt.Sprintf("kind=%d/%s", kind, tc.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				tbl := NewTable("t", NewSchema(Column{Name: "k", Type: kind}), 0)
				typed := func() any {
					if kind == TInt {
						return int64(rng.Intn(12))
					}
					return strconv.Itoa(rng.Intn(12))
				}
				probes := slices.Clone(mixed)
				for i := -1; i < 13; i++ {
					probes = append(probes, int64(i), strconv.Itoa(i))
				}
				ref := make(map[any][]int)
				accepted := 0
				check := func(n int) {
					if n < tc.indexAt {
						if _, _, ok := tbl.Lookup("k", probes[0]); ok {
							t.Fatalf("%d rows: Lookup reports an index before AddIndex", n)
						}
						return
					}
					ix := tbl.Index("k")
					var set Probed
					tbl.Probe(ix, probes, &set)
					if len(set.Offs) != len(probes)+1 || len(set.Buckets) != len(probes) {
						t.Fatalf("%d rows: Probe of %d keys returned %d lists, %d buckets", n, len(probes), len(set.Offs)-1, len(set.Buckets))
					}
					for i, k := range probes {
						want := ref[k]
						rids, bucket, ok := tbl.Lookup("k", k)
						if !ok || !slices.Equal(rids, want) {
							t.Fatalf("%d rows: Lookup(%#v) = %v %v, reference %v", n, k, rids, ok, want)
						}
						if !slices.Equal(set.Key(i), want) {
							t.Fatalf("%d rows: Probe key %#v = %v, reference %v", n, k, set.Key(i), want)
						}
						if wantB := bucketOf(k, ix.Pages); bucket != wantB || set.Buckets[i] != wantB {
							t.Fatalf("%d rows: bucket of %#v: Lookup %d, Probe %d, want %d", n, k, bucket, set.Buckets[i], wantB)
						}
						if c, ok := tbl.IndexKeyCount("k", k); !ok || c != len(want) {
							t.Fatalf("%d rows: IndexKeyCount(%#v) = %d %v, reference %d", n, k, c, ok, len(want))
						}
					}
				}
				for n := 0; n <= rows; n++ {
					if n == tc.indexAt {
						if err := tbl.AddIndex("k", false, 1, 7); err != nil {
							t.Fatal(err)
						}
					}
					if n%25 == 0 || n == tc.indexAt || n == tc.mixAt+1 {
						check(n)
					}
					if n == rows {
						break
					}
					k := typed()
					if n == tc.mixAt || (n > tc.mixAt && rng.Intn(2) == 0) {
						k = mixed[rng.Intn(len(mixed))]
						if n == tc.mixAt {
							k = map[ColType]any{TInt: "5", TString: int64(5)}[kind] // a key of the other type
						}
					}
					rid, err := tbl.Insert([]any{k})
					if (err == nil) != kind.fits(k) || (err == nil && rid != accepted) {
						t.Fatalf("offer %d of %#v: rid %d, %v; %d rows accepted", n, k, rid, err, accepted)
					}
					if err == nil {
						ref[k] = append(ref[k], rid)
						accepted++
					}
				}
			})
		}
	}
}

// appendIndex is the model an index is held to: every row's key, boxed, in a
// map[any][]int grown key by key and rid by rid.
func appendIndex(t *Table, column string) map[any][]int {
	model := map[any][]int{}
	for rid := 0; rid < t.NumRows(); rid++ {
		k := t.Row(rid)[t.Schema.ColIndex(column)]
		model[k] = append(model[k], rid)
	}
	return model
}

// lists is every key's rids in ix, whichever table or map holds it, widened
// to ints as the model has them.
func lists(ix *Index) map[any][]int {
	out := map[any][]int{}
	widen := func(k any) {
		var one [1]int32
		for _, rid := range ix.rids(k, &one) {
			out[k] = append(out[k], int(rid))
		}
	}
	for _, s := range ix.ints.slots {
		if s.v != free {
			widen(s.key())
		}
	}
	for k := range ix.strs {
		widen(k)
	}
	return out
}

// TestModelIndexTable holds the int table to a map[int64]int model under a
// seeded mix of upserts and gets, from an empty table through several
// doublings: random keys, a small domain that repeats, the keys 0, -1,
// MinInt64 and MaxInt64, and a run of keys built from the table's seed to
// share one home slot at every size the table reaches (so grow keeps it).
// Values are rids and list numbers, the extremes included. A found key's value
// is updated in place, as the index does when a key gains a rid. Gets cover
// the zero and the empty table and absent keys whose home is inside the full
// run.
func TestModelIndexTable(t *testing.T) {
	seed := testSeed(t)
	rng := rand.New(rand.NewSource(seed))
	var zero intTable
	if v, ok := zero.get(0); ok {
		t.Fatalf("get(0) on the zero table = %d, found", v)
	}
	tbl := newIntTable(0, rng.Uint64())
	edges := []int64{0, -1, math.MinInt64, math.MaxInt64}
	for _, k := range edges {
		if v, ok := tbl.get(k); ok {
			t.Fatalf("get(%d) on an empty table = %d, found", k, v)
		}
	}
	if x, y := buildInts(&Index{}, nil, 0), buildInts(&Index{}, nil, 0); x.seed == y.seed {
		t.Fatalf("two builds share the hash seed %#x", x.seed)
	}
	// (k^seed)*phi's top 16 bits pick k's home at every size up to 1<<16, so
	// keys whose products share them share a home until then, and only a
	// caller that knows the table's seed can build them: k = p*phi^-1 ^ seed.
	inv := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 6; i++ {
		inv *= 2 - 0x9e3779b97f4a7c15*inv
	}
	home := uint64(rng.Intn(1<<16)) << 48
	var run, absent []int64
	for j := uint64(1); j <= 80; j++ {
		k := int64((home|j<<20)*inv ^ tbl.seed)
		if j%2 == 0 {
			run = append(run, k)
		} else {
			absent = append(absent, k) // never inserted: a get walks the run
		}
	}
	model := map[int64]int32{}
	check := func(step int, k int64) {
		v, ok := tbl.get(k)
		if want, in := model[k]; ok != in || v != want {
			t.Fatalf("step %d: get(%d) = %d %v, model %d %v", step, k, v, ok, want, in)
		}
	}
	var sizes []int
	const steps = 20_000
	for step := 0; step < steps; step++ {
		var k int64
		switch r := rng.Intn(10); {
		case r < 4:
			k = int64(rng.Uint64())
		case r < 7:
			k = int64(rng.Intn(3000) - 1500)
		case r < 8:
			k = edges[rng.Intn(len(edges))]
		case r < 9:
			k = run[rng.Intn(len(run))]
		default:
			check(step, absent[rng.Intn(len(absent))])
			continue
		}
		if rng.Intn(3) == 0 {
			check(step, k)
			continue
		}
		v := rng.Int31n(math.MaxInt32)
		switch rng.Intn(8) {
		case 0:
			v = []int32{0, -1, math.MaxInt32, math.MinInt32 + 1}[rng.Intn(4)] // every value but the free mark
		case 1, 2, 3:
			v = ^v // a list number
		}
		val, fresh := tbl.upsert(k, v)
		old, in := model[k]
		switch {
		case fresh == in:
			t.Fatalf("step %d: upsert(%d) fresh %v, model has it: %v", step, k, fresh, in)
		case !fresh && *val != old:
			t.Fatalf("step %d: upsert(%d) found %d, model %d", step, k, *val, old)
		case !fresh:
			*val = v
		}
		model[k] = v
		if tbl.n != len(model) || tbl.n > len(tbl.slots)/8*7 {
			t.Fatalf("step %d: %d keys in %d slots, model %d", step, tbl.n, len(tbl.slots), len(model))
		}
		if len(sizes) == 0 || sizes[len(sizes)-1] != len(tbl.slots) {
			sizes = append(sizes, len(tbl.slots))
		}
	}
	for k := range model {
		check(steps, k)
	}
	for _, k := range append(edges, absent...) {
		check(steps, k)
	}
	held := 0
	for _, s := range tbl.slots {
		if s.v != free {
			if held++; model[s.key()] != s.v {
				t.Fatalf("slot of key %d holds %d, model %d", s.key(), s.v, model[s.key()])
			}
		}
	}
	if held != len(model) || len(sizes) < 6 || len(tbl.slots) > 1<<16 {
		t.Fatalf("%d slots held for %d keys; sizes %v: want several doublings below 1<<16", held, len(model), sizes)
	}
	// The run is full: its keys and the absent ones share a home slot.
	for _, k := range append(run, absent...) {
		if tbl.home(k) != tbl.home(run[0]) {
			t.Fatalf("key %d's home is %d, the run's %d", k, tbl.home(k), tbl.home(run[0]))
		}
	}
}

// TestModelIndexBuild holds AddIndex to the append model, over unique and
// non-unique columns, duplicate keys under a unique flag, string columns and
// an empty table — and then inserts past the build (a duplicate key into a
// unique index first, keys of the other type among them): after every insert
// the inserted key's list gained exactly its rid and every other key's list
// is what it was, and a rejected insert changes no list.
// A slab window that ran into its neighbour would change the neighbour; the
// neighbours case inserts into the middle one of three counted windows of the
// slab and then into each side of it.
func TestModelIndexBuild(t *testing.T) {
	seed := testSeed(t)
	for _, tc := range []struct {
		name   string
		kind   ColType
		unique bool
		rows   int
		key    func(rng *rand.Rand, i int) any
		next   []any // the keys inserted past the build, in turn; nil: the default mix
	}{
		{"unique int", TInt, true, 300, func(_ *rand.Rand, i int) any { return int64(i * 7919 % 1000) }, nil},
		{"non-unique int", TInt, false, 300, func(rng *rand.Rand, _ int) any { return int64(rng.Intn(9)) }, nil},
		{"duplicates under a unique flag", TInt, true, 300, func(rng *rand.Rand, _ int) any { return int64(rng.Intn(150)) }, nil},
		{"unique string", TString, true, 300, func(_ *rand.Rand, i int) any { return "u" + strconv.Itoa(i) }, nil},
		{"non-unique string", TString, false, 300, func(rng *rand.Rand, _ int) any { return strconv.Itoa(rng.Intn(9)) }, nil},
		{"empty table", TInt, true, 0, nil, nil},
		{"neighbours of a counted window", TInt, false, 9, func(_ *rand.Rand, i int) any { return int64(i % 3) },
			[]any{int64(1), int64(0), int64(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tbl := NewTable("t", NewSchema(Column{Name: "k", Type: tc.kind}), 0)
			var keys []any
			for i := 0; i < tc.rows; i++ {
				keys = append(keys, tc.key(rng, i))
				if _, err := tbl.Insert([]any{keys[i]}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tbl.AddIndex("k", tc.unique, 1, 7); err != nil {
				t.Fatal(err)
			}
			ix := tbl.Index("k")
			want := appendIndex(tbl, "k")
			if got := lists(ix); !reflect.DeepEqual(got, want) {
				t.Fatalf("built index differs from the append model:\n got %v\nwant %v", got, want)
			}
			next := tc.next
			if next == nil {
				next = []any{int64(5), "5", int64(1 << 40), "fresh"}
				if len(keys) > 0 {
					next = append([]any{keys[0]}, next...) // a key already present: a duplicate under a unique flag
				}
			}
			for i := 0; i < 40; i++ {
				k := next[i%len(next)]
				if i >= len(next) && len(keys) > 0 && tc.next == nil {
					k = keys[rng.Intn(len(keys))]
				}
				rid, err := tbl.Insert([]any{k})
				if (err == nil) != tc.kind.fits(k) {
					t.Fatalf("insert of %#v into a %s column: %v", k, tc.kind, err)
				}
				if err == nil {
					want[k] = append(slices.Clone(want[k]), rid)
				}
				if got := lists(ix); !reflect.DeepEqual(got, want) {
					t.Fatalf("insert of %#v at rid %d: index\n got %v\nwant %v", k, rid, got, want)
				}
			}
		})
	}
}

// AppendRows must land exactly what Insert of the same rows, boxed, lands: in
// the columns and in the indexes a destination already has. A source whose
// columns are of other types (its two columns the other way round) is an
// error, and nothing of it lands.
func TestAppendRowsMatchesInsert(t *testing.T) {
	src := newKV(t)
	for i := 0; i < 60; i++ {
		if _, err := src.Insert([]any{int64(i % 13), "s" + strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var sv View
	src.ViewInto(&sv)
	every := make([]int, sv.NumRows)
	for i := range every {
		every[i] = i
	}
	for _, rids := range [][]int{every, {}, {3, 7, 7, 59}, {30, 25, 1}, {0, 1, 2}} {
		for _, indexed := range []bool{false, true} {
			got, want := newKV(t), newKV(t)
			for _, tbl := range []*Table{got, want} {
				tbl.Insert([]any{int64(99), "pre"})
				if indexed {
					tbl.AddIndex("k", false, 1, 4)
					tbl.AddIndex("v", true, 2, 4)
				}
			}
			if err := got.AppendRows(&sv, rids); err != nil {
				t.Fatal(err)
			}
			for _, rid := range rids {
				want.Insert(src.Row(rid))
			}
			var gv, wv View
			got.ViewInto(&gv)
			want.ViewInto(&wv)
			if !reflect.DeepEqual(gv, wv) {
				t.Fatalf("%s rids %v indexed %v: columns\n got %+v\nwant %+v", src.Name, rids, indexed, gv, wv)
			}
			for _, col := range []string{"k", "v"} {
				if g, w := got.Index(col), want.Index(col); indexed && !reflect.DeepEqual(lists(g), lists(w)) {
					t.Fatalf("%s rids %v: index on %s\n got %v\nwant %v", src.Name, rids, col, lists(g), lists(w))
				}
			}
		}
	}
	swapped := NewTable("vk", NewSchema(Column{Name: "v", Type: TString}, Column{Name: "k", Type: TInt}), 0)
	for i := 0; i < 60; i++ {
		swapped.Insert([]any{"w" + strconv.Itoa(i), int64(i)})
	}
	var wv View
	swapped.ViewInto(&wv)
	dst := newKV(t)
	dst.Insert([]any{int64(99), "pre"})
	dst.AddIndex("k", false, 1, 4)
	if err := dst.AppendRows(&wv, []int{0, 1, 2}); err == nil {
		t.Fatal("AppendRows of a (string, int) view into an (int, string) table: want a type error")
	}
	if got := lists(dst.Index("k")); dst.NumRows() != 1 || !reflect.DeepEqual(got, map[any][]int{int64(99): {0}}) {
		t.Fatalf("a rejected AppendRows landed rows: %d rows, index %v", dst.NumRows(), got)
	}
	narrow := NewTable("n", NewSchema(Column{Name: "k", Type: TInt}), 0)
	narrow.Insert([]any{int64(1)})
	var nv View
	narrow.ViewInto(&nv)
	if err := newKV(t).AppendRows(&nv, nil); err == nil {
		t.Fatal("AppendRows of a one-column view into a two-column table: want an arity error")
	}
}

// BenchmarkAddIndex is the index build every copy ends with, on the shape of
// the benchmark's users table: 200 000 rows, a unique key, and a secondary
// column of 20 000 values (≈ 10 rows a key).
//
//	go test -run XXX -bench AddIndex -benchmem ./internal/storage/
func BenchmarkAddIndex(b *testing.B) {
	const rows, keys = 200_000, 20_000
	tbl := NewTable("users", NewSchema(Column{Name: "uid", Type: TInt}, Column{Name: "rating", Type: TInt}), 0)
	rng := rand.New(rand.NewSource(1))
	for uid := 0; uid < rows; uid++ {
		if _, err := tbl.Insert([]any{int64(uid), int64(rng.Intn(keys))}); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name, column string
		unique       bool
	}{{"unique", "uid", true}, {"nonunique", "rating", false}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tbl.AddIndex(bc.column, bc.unique, 1, 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProbe is the index lookup sqlmini drives a statement with: one key
// (Execute) and a 64-key set (ExecuteBatch of 64 bindings), drawn at random,
// against BenchmarkAddIndex's table: a unique column and a secondary column of
// 20 000 values (≈ 10 rows a key) over 200 000 rows. Each probe's rids are
// read once, as a statement reads its candidates. They are copied into the
// caller's Probed, which is reused, so a probe allocates nothing.
//
//	go test -run XXX -bench Probe -benchmem ./internal/storage/
var probeSink int

func BenchmarkProbe(b *testing.B) {
	const rows, ratings = 200_000, 20_000
	tbl := NewTable("users", NewSchema(Column{Name: "uid", Type: TInt}, Column{Name: "rating", Type: TInt}), 0)
	rng := rand.New(rand.NewSource(1))
	for uid := 0; uid < rows; uid++ {
		if _, err := tbl.Insert([]any{int64(uid), int64(rng.Intn(ratings))}); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name, column string
		unique       bool
		domain       int
	}{{"unique", "uid", true, rows}, {"nonunique", "rating", false, ratings}} {
		if err := tbl.AddIndex(bc.column, bc.unique, 1, 1024); err != nil {
			b.Fatal(err)
		}
		ix := tbl.Index(bc.column)
		keys := make([]any, 1<<16)
		for i := range keys {
			keys[i] = int64(rng.Intn(bc.domain))
		}
		for _, n := range []int{1, 64} {
			b.Run(fmt.Sprintf("%s/keys=%d", bc.name, n), func(b *testing.B) {
				var p Probed
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					at := (i * n) % (len(keys) - n)
					tbl.Probe(ix, keys[at:at+n], &p)
					for _, rid := range p.Rids {
						probeSink += rid
					}
				}
				if len(p.Offs) != n+1 || (bc.unique && len(p.Rids) != n) {
					b.Fatalf("probe of %d keys: %d lists, %d rids", n, len(p.Offs)-1, len(p.Rids))
				}
			})
		}
	}
}

// BenchmarkIndexGrow is the path an index takes when it starts empty and
// inserts fill it, as the benchmark's events table and its unique eid index
// do: 1 000 000 Inserts into an empty table with an index on its int column,
// the key table doubling as it fills. It reports ns per insert and, as
// grow-ms, the longest single Insert that doubled the table: the pause a
// writer holds the table's lock for.
//
//	go test -run XXX -bench IndexGrow -benchmem ./internal/storage/
func BenchmarkIndexGrow(b *testing.B) {
	const n = 1_000_000
	keys := make([]any, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	var worst time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := NewTable("events", NewSchema(Column{Name: "eid", Type: TInt}), 0)
		if err := tbl.AddIndex("eid", true, 1, 64); err != nil {
			b.Fatal(err)
		}
		ix := tbl.Index("eid")
		row := []any{nil}
		for _, k := range keys {
			row[0] = k
			if ix.ints.n < len(ix.ints.slots)/8*7 {
				tbl.Insert(row)
				continue
			}
			start := time.Now() // this insert doubles the table
			tbl.Insert(row)
			worst = max(worst, time.Since(start))
		}
		if ix.ints.n != n {
			b.Fatalf("%d keys indexed, want %d", ix.ints.n, n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/insert")
	b.ReportMetric(float64(worst.Microseconds())/1000, "grow-ms")
}

// TestIndexFootprint pins what an index costs a row, on the shape of the
// benchmark's users table: 100 000 rows, a unique int index and a non-unique
// int index of about five rows a key. The cost is the live heap the two builds
// add, measured across runtime.GC. A slot is 12 bytes and a rid in a window 4
// (plus 12 a window), so the pair costs about 26 bytes a row; the bound is
// that plus 10 %.
func TestIndexFootprint(t *testing.T) {
	const rows, limit = 100_000, 29.0 // bytes a row: the layout's 26 plus 10 %
	tbl := NewTable("users", NewSchema(Column{Name: "uid", Type: TInt}, Column{Name: "rating", Type: TInt}), 0)
	rng := rand.New(rand.NewSource(1))
	for uid := 0; uid < rows; uid++ {
		if _, err := tbl.Insert([]any{int64(uid), int64(rng.Intn(rows / 5))}); err != nil {
			t.Fatal(err)
		}
	}
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	if err := tbl.AddIndex("uid", true, 1, 64); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddIndex("rating", false, 2, 64); err != nil {
		t.Fatal(err)
	}
	perRow := float64(live()-before) / rows
	runtime.KeepAlive(tbl)
	t.Logf("indexes: %.1f bytes a row", perRow)
	if perRow > limit {
		t.Errorf("a unique and a non-unique int index cost %.1f bytes a row, want at most %.0f", perRow, limit)
	}
}

// TestRowBound: a table holds at most math.MaxInt32 rows, the rids an index's
// int32 windows and slots can name. Insert and AppendRows take rows up to the
// bound and refuse the next, leaving the row count as it was. The row count is
// set in place of loading 2^31 rows.
func TestRowBound(t *testing.T) {
	src := newKV(t)
	src.Insert([]any{int64(1), "x"})
	var sv View
	src.ViewInto(&sv)
	tbl := newKV(t)
	tbl.numRows = math.MaxInt32 - 3
	if err := tbl.AppendRows(&sv, []int{0, 0}); err != nil {
		t.Fatalf("AppendRows up to %d rows: %v", math.MaxInt32-1, err)
	}
	if err := tbl.AppendRows(&sv, []int{0, 0}); err == nil || tbl.NumRows() != math.MaxInt32-1 {
		t.Fatalf("AppendRows past %d rows: %v, %d rows", math.MaxInt32, err, tbl.NumRows())
	}
	if rid, err := tbl.Insert([]any{int64(2), "y"}); err != nil || rid != math.MaxInt32-1 {
		t.Fatalf("Insert of the last row: rid %d, %v", rid, err)
	}
	if _, err := tbl.Insert([]any{int64(3), "z"}); err == nil || tbl.NumRows() != math.MaxInt32 {
		t.Fatalf("Insert past %d rows: %v, %d rows", math.MaxInt32, err, tbl.NumRows())
	}
	if err := tbl.AppendRows(&sv, []int{0}); err == nil || tbl.NumRows() != math.MaxInt32 {
		t.Fatalf("AppendRows past %d rows: %v, %d rows", math.MaxInt32, err, tbl.NumRows())
	}
}

// TestBucketOfIntMatchesDecimal holds an int key's bucket page to the formula
// it has always had, FNV-1a over the key's decimal digits as strconv writes
// them, at three page counts: 0, ±1, the extremes, every power of ten, its
// negation and their neighbours, and 10^6 seeded random keys of every size.
func TestBucketOfIntMatchesDecimal(t *testing.T) {
	keys := []int64{0, 1, -1, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	for p := int64(10); p <= 1e18; p *= 10 {
		keys = append(keys, p-1, p, p+1, -p+1, -p, -p-1)
	}
	rng := rand.New(rand.NewSource(testSeed(t)))
	for i := 0; i < 1_000_000; i++ {
		keys = append(keys, int64(rng.Uint64())>>rng.Intn(64))
	}
	for _, k := range keys {
		h := fnv1a(strconv.AppendInt(nil, k, 10))
		for _, pages := range []int{7, 64, 3125} {
			if got, want := bucketOf(k, pages), int(h%uint64(pages)); got != want {
				t.Fatalf("bucketOf(%d, %d) = %d, want %d", k, pages, got, want)
			}
		}
	}
}

// FuzzIndexModel holds the index layout to a map[any][]int model through
// inserts after the build. A seeded column of int keys and a string column
// derived from it are loaded and indexed (unique flag from the input), then
// each op byte inserts one row, a run of rows of one key (a window that fills
// and moves) or a run of fresh keys (the int table doubles), and probes. Keys
// come from a palette led by math.MinInt64 (also math.MinInt, the old free
// mark), math.MaxInt64, -1 and 0. Every op probes the key it inserted and the
// palette through Probe and IndexKeyCount; every 32nd op and the last compare
// every key the index holds.
func FuzzIndexModel(f *testing.F) {
	f.Add(uint16(0), false, []byte{})
	f.Add(uint16(300), false, []byte{0x80, 0x81, 0x40, 0x41, 0x42, 0x43, 0xff})
	f.Add(uint16(200), true, bytes.Repeat([]byte{0x83, 0xc0 | 20, 0x01}, 12)) // one key's window moves, doublings
	f.Add(uint16(2000), false, []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0xbf, 0xc0 | 63, 0x84, 0x44})
	f.Fuzz(func(t *testing.T, seed uint16, unique bool, ops []byte) {
		palette := []int64{math.MinInt64, int64(math.MinInt), math.MaxInt64, -1, 0}
		for i := int64(1); len(palette) < 64; i++ {
			palette = append(palette, i, -i*1000003)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		tbl := NewTable("t", NewSchema(Column{Name: "k", Type: TInt}, Column{Name: "s", Type: TString}), 0)
		model := map[string]map[any][]int{"k": {}, "s": {}}
		insert := func(k int64) {
			row := []any{k, "s" + strconv.FormatInt(k%50, 10)}
			rid, err := tbl.Insert(row)
			if err != nil {
				t.Fatal(err)
			}
			model["k"][row[0]] = append(model["k"][row[0]], rid)
			model["s"][row[1]] = append(model["s"][row[1]], rid)
		}
		for i := 0; i < int(seed%2048); i++ {
			insert(palette[rng.Intn(len(palette))] + int64(rng.Intn(int(seed%7)+1)))
		}
		for _, col := range []string{"k", "s"} {
			if err := tbl.AddIndex(col, unique, 1, 7); err != nil {
				t.Fatal(err)
			}
		}
		check := func(step int, keys ...any) {
			for _, col := range []string{"k", "s"} {
				for _, k := range keys {
					if col == "s" {
						k = "s" + strconv.FormatInt(k.(int64)%50, 10)
					}
					want := model[col][k]
					rids, _, _ := tbl.Lookup(col, k)
					if n, _ := tbl.IndexKeyCount(col, k); !slices.Equal(rids, want) || n != len(want) {
						t.Fatalf("op %d: %s = %#v: rids %v, count %d; model %v", step, col, k, rids, n, want)
					}
				}
			}
		}
		fresh := int64(1 << 40)
		for step, op := range ops {
			k := palette[op&63]
			switch op >> 6 {
			case 0, 1:
				insert(k)
			case 2:
				for i := 0; i < 1+int(op&15)*4; i++ {
					insert(k)
				}
			default:
				for i := 0; i < int(op&63)*8; i++ {
					insert(fresh)
					fresh++
				}
				k = fresh - 1
			}
			check(step, append([]any{k}, anys(palette)...)...)
			if step%32 == 31 || step == len(ops)-1 {
				for _, col := range []string{"k", "s"} {
					if got := lists(tbl.Index(col)); !reflect.DeepEqual(got, model[col]) {
						t.Fatalf("op %d: index on %s differs from the model:\n got %v\nwant %v", step, col, got, model[col])
					}
				}
			}
		}
	})
}

func anys(keys []int64) []any {
	out := make([]any, len(keys))
	for i, k := range keys {
		out[i] = k
	}
	return out
}
