// The race detector makes sync.Pool drop a quarter of what is Put, so the
// executor's pooled scratch is reallocated and the count below does not hold
// under it.

//go:build !race

package server

import (
	"fmt"
	"testing"

	"repro/internal/interp"
	"repro/internal/query"
	"repro/internal/storage"
)

// usersServer is a server holding 1000 users indexed by uid.
func usersServer(t *testing.T) *Server {
	s := New(SYS1(), 0)
	t.Cleanup(s.Close)
	users := s.Catalog().CreateTable("users", storage.NewSchema(
		storage.Column{Name: "uid", Type: storage.TInt},
		storage.Column{Name: "nickname", Type: storage.TString},
		storage.Column{Name: "rating", Type: storage.TInt},
	))
	for i := int64(0); i < 1000; i++ {
		if _, err := users.Insert([]any{i, fmt.Sprintf("user%d", i), 10000 + i}); err != nil {
			t.Fatal(err)
		}
	}
	s.FinishLoad()
	if err := s.AddIndex("users", "uid", true); err != nil {
		t.Fatal(err)
	}
	s.Warm()
	return s
}

// TestPointAllocations pins what one indexed single-row select costs the heap
// on one server, the set-oriented kernel over a set of one: the result's column
// list (aliasing the table's vectors), its selection — which is also the owned
// Matched trace the scatter merge reads — and its one view: three objects. It
// was five while the result copied a vector per column and Matched was a
// second copy of the rids.
func TestPointAllocations(t *testing.T) {
	s := usersServer(t)
	call := query.Call{Request: query.Req("point", "select nickname, rating from users where uid = ?", []any{int64(377)})}
	c, rep := &call, new(query.Reply)
	got := testing.AllocsPerRun(500, func() {
		*rep = query.Reply{}
		s.Do(c, rep)
	})
	if rs, ok := rep.Value.(*interp.RowSet); rep.Err != nil || !ok || rs.N != 1 || len(rep.Info.Matched) != 1 {
		t.Fatalf("answered %v, %v, matched %v; want a 1-row *interp.RowSet", rep.Value, rep.Err, rep.Info.Matched)
	}
	if rs := rep.Value.(*interp.RowSet); &rs.Sel[0] != &rep.Info.Matched[0] {
		t.Error("Matched is a second copy of the result's selection")
	}
	if got > 3 {
		t.Errorf("a point select allocates %.2f objects, want at most 3", got)
	}
}

// TestBatchAllocations pins what a 64-binding point-select sub-batch costs the
// heap on one server: the result and error slots, and one columnar block for
// the whole batch — its column list, its selection, and the 64 views the
// bindings' results are: five objects. (Six while the block copied a vector
// per column; with a row map per binding and a box per cell it was 449, seven
// a binding.)
func TestBatchAllocations(t *testing.T) {
	s := usersServer(t)
	sets := make([][]any, 64)
	for i := range sets {
		sets[i] = []any{int64(i * 13)}
	}
	call := query.BatchCall(query.BatchReq("point", "select nickname, rating from users where uid = ?", sets))
	c, rep := &call, new(query.Reply)
	got := testing.AllocsPerRun(200, func() {
		*rep = query.Reply{}
		s.Do(c, rep)
	})
	for i, v := range rep.Values {
		if rs, ok := v.(*interp.RowSet); rep.Errs[i] != nil || !ok || rs.N != 1 {
			t.Fatalf("binding %d answered %v, %v; want a 1-row *interp.RowSet", i, v, rep.Errs[i])
		}
	}
	if got > 5 {
		t.Errorf("a 64-binding batch allocates %.2f objects, want at most 5", got)
	}
}
