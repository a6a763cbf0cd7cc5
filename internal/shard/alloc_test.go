// The race detector makes sync.Pool drop a quarter of what is Put, so the
// executor's pooled scratch is reallocated and the count below does not hold
// under it.

//go:build !race

package shard

import (
	"fmt"
	"testing"

	"repro/internal/interp"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/storage"
)

// TestScatterAllocations pins what a 10-row scatter costs the heap between the
// front door and the wire encoder: two shards, each a primary and a replica,
// called through the router's pointer form the way net.Server calls it. The 13
// objects are the fan-out (its legs and their join, one object; the pruned
// target list stays on the stack), per leg the three objects of a columnar
// result (the set, its column list aliasing the table's vectors, its
// selection, which is also the matched trace), the merged result's four, and a
// leg worker's start: testing.AllocsPerRun runs on one P, where the worker
// handed the previous call's leg has not run to park again, so each call
// starts one (its closure, and its goroutine when no exited one is free). With
// a second core most calls find that worker parked again and start none (11.7
// objects a call in a loop of 20 000 on two cores). No row is a map and no
// cell is boxed. (15 while every leg but the last was a goroutine
// of its own beside a target list, the legs and a WaitGroup; 23 while each
// leg's read attempt was a closure and its result copied a vector per column
// beside a second copy of the matched rids; with a map per row and a box per
// cell the same call allocated 69.)
func TestScatterAllocations(t *testing.T) {
	ref := server.New(server.SYS1(), 0)
	t.Cleanup(ref.Close)
	users := ref.Catalog().CreateTable("users", storage.NewSchema(
		storage.Column{Name: "uid", Type: storage.TInt},
		storage.Column{Name: "name", Type: storage.TString},
		storage.Column{Name: "grp", Type: storage.TInt},
	))
	for i := 0; i < 200; i++ {
		if _, err := users.Insert([]any{int64(10000 + i), fmt.Sprintf("u%d", i), int64(i % 20)}); err != nil {
			t.Fatal(err)
		}
	}
	ref.FinishLoad()
	for col, unique := range map[string]bool{"uid": true, "grp": false} {
		if err := ref.AddIndex("users", col, unique); err != nil {
			t.Fatal(err)
		}
	}
	r := newRouter(t, ref, Options{Shards: 2, Group: replica.Options{Replicas: 1}, Keys: map[string]string{"users": "uid"}})

	c := &query.Call{Request: query.Req("scatter", "select uid, name from users where grp = ?", []any{int64(7)})}
	rep := new(query.Reply)
	got := testing.AllocsPerRun(1000, func() {
		*rep = query.Reply{}
		r.Do(c, rep)
	})
	if rs, ok := rep.Value.(*interp.RowSet); rep.Err != nil || !ok || rs.N != 10 {
		t.Fatalf("scatter answered %v, %v; want a 10-row *interp.RowSet", rep.Value, rep.Err)
	}
	if got > 13 {
		t.Errorf("a 10-row scatter allocates %.2f objects, want at most 13", got)
	}
}

// TestGroupedBatchAllocations pins a batch the coalescer grouped onto one
// shard (BatchGroup): 16 point selects, all owned by shard 0, through the
// router's pointer form. Every binding routes to the same shard, so the call
// goes there whole: the 6 objects are the list of routed destinations and
// the 5 of the shard's batch read. (16 while such a batch was carved into a
// one-leg fan-out and demultiplexed like a mixed one.)
func TestGroupedBatchAllocations(t *testing.T) {
	ref := server.New(server.SYS1(), 0)
	t.Cleanup(ref.Close)
	users := ref.Catalog().CreateTable("users", storage.NewSchema(
		storage.Column{Name: "uid", Type: storage.TInt},
		storage.Column{Name: "name", Type: storage.TString},
	))
	for i := 0; i < 200; i++ {
		if _, err := users.Insert([]any{int64(i), fmt.Sprintf("u%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	ref.FinishLoad()
	if err := ref.AddIndex("users", "uid", true); err != nil {
		t.Fatal(err)
	}
	r := newRouter(t, ref, Options{Shards: 2, Group: replica.Options{Replicas: 1}, Keys: map[string]string{"users": "uid"}})

	const q = "select name from users where uid = ?"
	var argSets [][]any
	for uid := int64(0); len(argSets) < 16; uid++ {
		if r.BatchGroup("point", q, []any{uid}) == 0 {
			argSets = append(argSets, []any{uid})
		}
	}
	c := &query.Call{Request: query.Req("point", q, nil), ArgSets: argSets}
	rep := new(query.Reply)
	got := testing.AllocsPerRun(1000, func() {
		*rep = query.Reply{}
		r.Do(c, rep)
	})
	if err := rep.FirstErr(); err != nil || len(rep.Values) != 16 {
		t.Fatalf("grouped batch answered %d values, %v; want 16", len(rep.Values), err)
	}
	if got > 6 {
		t.Errorf("a grouped 16-binding batch allocates %.2f objects, want at most 6", got)
	}
}
