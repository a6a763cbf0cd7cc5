// The race detector makes sync.Pool drop a quarter of what is Put and adds
// its own allocations, so the count below does not hold under it.

//go:build !race

package replica

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestReplicatedInsertAllocations pins what one acknowledged write costs the
// heap in the posture every benchmark and differential suite runs: one
// synchronous replica, group commit, a single-row insert into a three-column
// table through Group.Exec — primary execution, WAL append, the flusher's
// encode and commit, and the replica apply, all counted (AllocsPerRun counts
// every goroutine). It was 27 while the flusher copied its batch out of the
// tail, the record encoder went through encoding/json and every apply had a
// goroutine and a WaitGroup of its own, and 14 while the replica's
// apply-batch-of-one went through the per-query executor, which allocated a
// Matched trace nobody read beside the batch's InsertRids; the bound is what it
// measures now, so none of those can quietly come back.
func TestReplicatedInsertAllocations(t *testing.T) {
	g := NewGroup(server.SYS1(), 0, Options{Replicas: 1, Durability: wal.Group})
	t.Cleanup(g.Close)
	loadTable(t, g, wal.TableSource{
		Name: "events",
		Schema: storage.NewSchema(
			storage.Column{Name: "eid", Type: storage.TInt},
			storage.Column{Name: "uid", Type: storage.TInt},
			storage.Column{Name: "note", Type: storage.TString},
		),
		Indexes: []wal.IndexDef{{Column: "eid", Unique: true}},
	})
	const insert = "insert into events values (?, ?, ?)"
	eid := int64(0)
	write := func() {
		eid++
		if err := g.Exec(query.Req("event", insert, []any{eid, eid % 97, "note"})).Err; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ { // past the first growth steps of table, index and log tail
		write()
	}
	if got := testing.AllocsPerRun(2000, write); got > 13 {
		t.Errorf("replicated single-row insert: %.2f allocations, want at most 13", got)
	}
}

// TestReadAllocations pins what one point read costs the heap in the group:
// the serving server's columnar result (its column list, selection and view)
// and nothing of the group's own, which re-scopes the call in place instead
// of copying it. It was five while every attempt was a closure that could
// also run on a second, racing goroutine, and the result a copied column
// beside a separate Matched trace.
func TestReadAllocations(t *testing.T) {
	g := newGroupOpts(t, Options{Replicas: 1})
	c := &query.Call{Request: query.Req("point", sel, []any{int64(42)})}
	rep := new(query.Reply)
	got := testing.AllocsPerRun(1000, func() {
		*rep = query.Reply{}
		g.Do(c, rep)
	})
	if rs, ok := rep.Value.(*interp.RowSet); rep.Err != nil || !ok || rs.N != 1 {
		t.Fatalf("read answered %v, %v; want a 1-row *interp.RowSet", rep.Value, rep.Err)
	}
	if got > 3 {
		t.Errorf("a point read allocates %.2f objects, want at most 3", got)
	}
}
