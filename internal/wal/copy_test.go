package wal_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

var (
	usersSchema = storage.NewSchema(
		storage.Column{Name: "uid", Type: storage.TInt},
		storage.Column{Name: "name", Type: storage.TString},
		storage.Column{Name: "rating", Type: storage.TInt},
	)
	catsSchema = storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TInt},
		storage.Column{Name: "label", Type: storage.TString},
	)
)

// copyFixture is a reference server in the shape a shard load copies: a
// sharded users table (unique uid, a secondary rating of ≈ 6 rows a key) and a
// replicated cats table with an index on its string label column.
func copyFixture(t *testing.T) *server.Server {
	t.Helper()
	s := server.New(server.SYS1(), 0)
	t.Cleanup(s.Close)
	if err := s.CreateTable("users", usersSchema, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("cats", catsSchema, 4); err != nil {
		t.Fatal(err)
	}
	for uid := 0; uid < 300; uid++ {
		if err := s.InsertRow("users", []any{int64(uid), "u" + strconv.Itoa(uid), int64(uid * 7 % 50)}); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 30; id++ {
		if err := s.InsertRow("cats", []any{int64(id), "c" + strconv.Itoa(id%9)}); err != nil {
			t.Fatal(err)
		}
	}
	s.FinishLoad()
	for _, ix := range []struct {
		table, col string
		unique     bool
	}{{"users", "uid", true}, {"users", "rating", false}, {"cats", "id", true}, {"cats", "label", false}} {
		if err := s.AddIndex(ix.table, ix.col, ix.unique); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// ownerOf is the fixture's routing rule: users by uid parity, cats to every
// destination.
func ownerOf(name string, v *storage.View, rid int) int {
	if name == "users" {
		return int(v.Cols[0].Ints[rid] % 2)
	}
	return wal.All
}

// subset is src cut down to rids, in order: the source a copy into one
// destination alone reads.
func subset(t *testing.T, src wal.TableSource, schema *storage.Schema, rids []int) wal.TableSource {
	t.Helper()
	tbl := storage.NewTable(src.Name, schema, src.Extent)
	if err := tbl.AppendRows(&src.View, rids); err != nil {
		t.Fatal(err)
	}
	src.View = storage.View{} // ViewInto would reuse the shared Cols
	tbl.ViewInto(&src.View)
	return src
}

// flipSources are a migration flip's double-writes: one-row, rows-only
// sources (nil Schema, no indexes) of tables the destinations already hold.
func flipSources(t *testing.T) []wal.TableSource {
	t.Helper()
	var srcs []wal.TableSource
	for i, row := range [][]any{{int64(301), "u301", int64(3)}, {int64(300), "u300", int64(3)}, {int64(5), "dup", int64(49)}} {
		tbl := storage.NewTable("users", usersSchema, 0)
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, wal.TableSource{Name: "users"})
		tbl.ViewInto(&srcs[i].View)
	}
	cat := storage.NewTable("cats", catsSchema, 0)
	if _, err := cat.Insert([]any{int64(30), "c3"}); err != nil {
		t.Fatal(err)
	}
	srcs = append(srcs, wal.TableSource{Name: "cats"})
	cat.ViewInto(&srcs[len(srcs)-1].View)
	return srcs
}

// sameCopy fails unless got holds what want holds: the same tables with the
// same extents, page fanouts, page counts and rows, and the same indexes
// (extents, bucket pages) answering Probe and IndexKeyCount alike for every
// key of the fixture's domains, absent and mistyped keys included.
func sameCopy(t *testing.T, what string, got, want *server.Server) {
	t.Helper()
	keys := []any{int64(-1), "absent", nil, int(5)}
	for i := 0; i < 310; i++ {
		keys = append(keys, int64(i), "u"+strconv.Itoa(i), "c"+strconv.Itoa(i))
	}
	for _, w := range want.Catalog().Tables() {
		g := got.Catalog().Table(w.Name)
		if g == nil {
			t.Fatalf("%s: no table %s", what, w.Name)
		}
		if g.Extent != w.Extent || g.RowsPerPage() != w.RowsPerPage() || g.NumPages() != w.NumPages() {
			t.Fatalf("%s: %s extent/fanout/pages %d/%d/%d, want %d/%d/%d", what, w.Name,
				g.Extent, g.RowsPerPage(), g.NumPages(), w.Extent, w.RowsPerPage(), w.NumPages())
		}
		var gv, wv storage.View
		g.ViewInto(&gv)
		w.ViewInto(&wv)
		if !reflect.DeepEqual(gv, wv) {
			t.Fatalf("%s: %s rows\n got %+v\nwant %+v", what, w.Name, gv, wv)
		}
		gix, wix := g.Indexes(), w.Indexes()
		if len(gix) != len(wix) {
			t.Fatalf("%s: %s has %d indexes, want %d", what, w.Name, len(gix), len(wix))
		}
		for k, wi := range wix {
			gi := gix[k]
			if gi.Column != wi.Column || gi.Unique != wi.Unique || gi.Extent != wi.Extent || gi.Pages != wi.Pages {
				t.Fatalf("%s: %s index %+v, want %+v", what, w.Name, *gi, *wi)
			}
			var gp, wp storage.Probed
			g.Probe(gi, keys, &gp)
			w.Probe(wi, keys, &wp)
			for i, key := range keys {
				if !slices.Equal(gp.Key(i), wp.Key(i)) || gp.Buckets[i] != wp.Buckets[i] {
					t.Fatalf("%s: %s(%s) probe of %#v: %v bucket %d, want %v bucket %d", what, w.Name, wi.Column, key,
						gp.Key(i), gp.Buckets[i], wp.Key(i), wp.Buckets[i])
				}
				gn, gok := g.IndexKeyCount(wi.Column, key)
				wn, wok := w.IndexKeyCount(wi.Column, key)
				if gn != wn || gok != wok {
					t.Fatalf("%s: %s(%s) key count of %#v: %d %v, want %d %v", what, w.Name, wi.Column, key, gn, gok, wn, wok)
				}
			}
		}
	}
}

// A copy into two sets of two loaders, every loader building at once, leaves
// each loader exactly as a copy of what its set was picked for into that
// loader alone does — and so does the migration flip's rows-only copy after
// it, into tables that already have their indexes.
func TestCopyIntoSetsMatchesCopyAlone(t *testing.T) {
	ref := copyFixture(t)
	srcs := wal.LiveTables(ref.Catalog())
	schemas := map[string]*storage.Schema{"users": usersSchema, "cats": catsSchema}
	flip := flipSources(t)
	newServer := func() *server.Server {
		s := server.New(server.SYS1(), 0)
		t.Cleanup(s.Close)
		return s
	}
	dsts := [][]*server.Server{{newServer(), newServer()}, {newServer(), newServer()}}
	pick := func(list []wal.TableSource) func(src, rid int, v *storage.View) int {
		return func(src, rid int, v *storage.View) int { return ownerOf(list[src].Name, v, rid) }
	}
	// What destination d was picked for, source by source: every row of cats,
	// kept[i][d] of users.
	picked := func(d int, list []wal.TableSource, kept [][][]int) []wal.TableSource {
		out := make([]wal.TableSource, len(list))
		for i, s := range list {
			rids := kept[i][d]
			for _, rid := range rids {
				if got := ownerOf(s.Name, &s.View, rid); got != d {
					t.Fatalf("kept[%d][%d] lists %s rid %d, owned by %d", i, d, s.Name, rid, got)
				}
			}
			if s.Name == "cats" {
				for rid := 0; rid < s.View.NumRows; rid++ {
					rids = append(rids, rid)
				}
			}
			out[i] = subset(t, s, schemas[s.Name], rids)
		}
		return out
	}
	alone := []*server.Server{newServer(), newServer()}
	for step, list := range [][]wal.TableSource{srcs, flip} {
		kept, err := wal.Copy(dsts, list, pick(list))
		if err != nil {
			t.Fatal(err)
		}
		for d, set := range dsts {
			if _, err := wal.Copy([][]*server.Server{{alone[d]}}, picked(d, list, kept), nil); err != nil {
				t.Fatal(err)
			}
			for j, l := range set {
				sameCopy(t, fmt.Sprintf("step %d, set %d loader %d", step, d, j), l, alone[d])
			}
		}
	}
}

// flaky is a loader whose calls can be held or failed, and that counts the
// calls in flight and any call that arrives after Copy returned.
type flaky struct {
	*server.Server
	hold       chan struct{} // FinishLoad waits on it when non-nil
	appendErr  error
	indexErr   error
	failed     chan<- struct{} // told when a failure is returned
	inFlight   *atomic.Int32
	afterwards *atomic.Bool // set once Copy returned
	late       *atomic.Int32
}

func (f *flaky) enter() func() {
	if f.afterwards.Load() {
		f.late.Add(1)
	}
	f.inFlight.Add(1)
	return func() { f.inFlight.Add(-1) }
}

func (f *flaky) AppendRows(table string, v *storage.View, rids []int) error {
	defer f.enter()()
	if f.appendErr != nil {
		f.failed <- struct{}{}
		return f.appendErr
	}
	return f.Server.AppendRows(table, v, rids)
}

func (f *flaky) FinishLoad() {
	defer f.enter()()
	if f.hold != nil {
		<-f.hold
	}
	f.Server.FinishLoad()
}

func (f *flaky) AddIndex(table, column string, unique bool) error {
	defer f.enter()()
	if f.indexErr != nil {
		return f.indexErr
	}
	return f.Server.AddIndex(table, column, unique)
}

// When several loaders fail, Copy returns the failure of the first in (set,
// loader) order — here the last to fail in time, held until the two of the
// second set have failed — and only after every loader's calls are over.
func TestCopyReturnsFirstFailureInLoaderOrder(t *testing.T) {
	ref := copyFixture(t)
	srcs := wal.LiveTables(ref.Catalog())
	var inFlight, late atomic.Int32
	var afterwards atomic.Bool
	failed := make(chan struct{}, 2)
	hold := make(chan struct{})
	first := errors.New("set 0 loader 1: index")
	mk := func(l flaky) *flaky {
		l.Server = server.New(server.SYS1(), 0)
		t.Cleanup(l.Server.Close)
		l.failed, l.inFlight, l.afterwards, l.late = failed, &inFlight, &afterwards, &late
		return &l
	}
	dsts := [][]*flaky{
		{mk(flaky{hold: hold}), mk(flaky{hold: hold, indexErr: first})},
		{mk(flaky{appendErr: errors.New("set 1 loader 0: append")}), mk(flaky{appendErr: errors.New("set 1 loader 1: append")})},
	}
	go func() {
		<-failed
		<-failed
		close(hold)
	}()
	_, err := wal.Copy(dsts, srcs, func(src, rid int, v *storage.View) int { return ownerOf(srcs[src].Name, v, rid) })
	afterwards.Store(true)
	if !errors.Is(err, first) {
		t.Fatalf("Copy returned %v, want the first loader's failure %q", err, first)
	}
	if want := "wal: copy: index users(rating): " + first.Error(); err.Error() != want {
		t.Fatalf("Copy returned %q, want %q", err, want)
	}
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("%d loader calls still running after Copy returned", n)
	}
	if dsts[0][0].Catalog().Table("cats").Index("label") == nil {
		t.Fatal("set 0 loader 0 did not finish its indexes before Copy returned")
	}
	if n := late.Load(); n != 0 {
		t.Fatalf("%d loader calls arrived after Copy returned", n)
	}
}
