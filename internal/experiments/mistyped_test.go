package experiments

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/net"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
)

// TestMistypedInsertIsRejectedAtEveryDoor sends three inserts whose values do
// not fit the load table's columns — a null, a bool, a string in the int
// column — through every door a write can enter by: a bare server, a replica
// group, a router over replica groups with the table sharded on its key and
// with it replicated to every shard, and the TCP front door over the served
// posture. Each door must answer each insert with the storage error and
// change nothing: no copy gains a row, no WAL record is appended, no fsync
// fails. The next well-typed insert must then be acknowledged inside its
// deadline: a mistyped row that reached a group's log could not be encoded,
// and its flusher would retry it forever, wedging every later write.
func TestMistypedInsertIsRejectedAtEveryDoor(t *testing.T) {
	const rows = 100
	group := replica.Options{Replicas: 1, Durability: wal.Group}
	ref := server.New(server.SYS1(), 0)
	t.Cleanup(ref.Close)
	if err := apps.LoadPointTable(ref, "load", rows); err != nil {
		t.Fatal(err)
	}

	type door struct {
		name   string
		exec   func(query.Request) query.Result
		groups []*replica.Group
		copies []*server.Server // every copy of the load table behind the door
	}
	routed := func(name string, keys map[string]string) door {
		r := shard.New(server.SYS1(), 0, shard.Options{Shards: 2, Keys: keys, Group: group})
		t.Cleanup(r.Close)
		if err := r.LoadFrom(ref); err != nil {
			t.Fatal(err)
		}
		return door{name: name, exec: r.Exec, groups: r.Groups()}
	}

	srv := server.New(server.SYS1(), 0)
	t.Cleanup(srv.Close)
	g := replica.NewGroup(server.SYS1(), 0, group)
	t.Cleanup(g.Close)
	for _, copies := range [][]*server.Server{{srv}, g.Copies()} {
		if _, err := wal.Copy([][]*server.Server{copies}, wal.LiveTables(ref.Catalog()), nil); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Serve("127.0.0.1:0", 0, 2, group, rows, net.ServerOptions{MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	cl, err := net.Dial(st.Door.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	doors := []door{
		{name: "server", exec: srv.Exec, copies: []*server.Server{srv}},
		{name: "replica group", exec: g.Exec, groups: []*replica.Group{g}},
		routed("router, keyed table", map[string]string{"load": "id"}),
		routed("router, replicated table", nil),
		{name: "tcp", exec: cl.Exec, groups: st.Router.Groups()},
	}

	const insert = "insert into load values (?, ?)"
	mistyped := []struct {
		args []any
		want string
	}{
		{[]any{int64(rows + 1), nil}, `storage: load: column "val" holds string, not <nil>`},
		{[]any{int64(rows + 2), true}, `storage: load: column "val" holds string, not bool`},
		{[]any{"x", "w"}, `storage: load: column "id" holds int64, not string`},
	}
	deadline := func() query.Deadline { return query.After(500 * time.Millisecond) }
	for _, d := range doors {
		for _, g := range d.groups {
			d.copies = append(d.copies, g.Copies()...)
		}
		if len(d.copies) == 0 {
			t.Fatalf("%s: no copies to check", d.name)
		}
		before := make([]int, len(d.copies))
		for i, s := range d.copies {
			before[i] = s.Catalog().Table("load").NumRows()
		}
		appends := make([]int64, len(d.groups))
		for i, g := range d.groups {
			appends[i] = g.WALStats().Appends
		}
		for _, m := range mistyped {
			res := d.exec(query.Req("ins", insert, m.args).WithDeadline(deadline()))
			if res.Err == nil || res.Err.Error() != m.want {
				t.Errorf("%s: insert %v answered %v, %v; want %q", d.name, m.args, res.Value, res.Err, m.want)
			}
		}
		for i, s := range d.copies {
			if n := s.Catalog().Table("load").NumRows(); n != before[i] {
				t.Errorf("%s: copy %d holds %d rows after the rejected inserts, had %d", d.name, i, n, before[i])
			}
		}
		for i, g := range d.groups {
			if ws := g.WALStats(); ws.Appends != appends[i] || ws.SyncErrors != 0 {
				t.Errorf("%s: group %d WAL appends %d → %d, sync errors %d; want no append and no error",
					d.name, i, appends[i], ws.Appends, ws.SyncErrors)
			}
		}
		ok := query.Req("ins", insert, []any{int64(rows + 3), "fits"}).WithDeadline(deadline())
		if res := d.exec(ok); res.Err != nil || res.Value != int64(1) {
			t.Errorf("%s: the well-typed insert after them answered %v, %v; want 1 inside 500 ms", d.name, res.Value, res.Err)
		}
	}
}
