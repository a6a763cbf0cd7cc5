package experiments

import (
	"fmt"
	"testing"

	"repro/internal/interp"
	"repro/internal/net"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
)

// conformanceRef loads the suite's table into a fresh server:
// items(id, grp, name), 60 rows, unique index on id, non-unique on grp,
// nothing on name (so a predicate on it scans).
func conformanceRef(t *testing.T) *server.Server {
	t.Helper()
	ref := server.New(server.SYS1(), 0)
	t.Cleanup(ref.Close)
	items := ref.Catalog().CreateTable("items", storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TInt},
		storage.Column{Name: "grp", Type: storage.TInt},
		storage.Column{Name: "name", Type: storage.TString},
	))
	items.SetRowsPerPage(4)
	for i := int64(0); i < 60; i++ {
		if _, err := items.Insert([]any{i, i % 7, fmt.Sprintf("n%d", i%11)}); err != nil {
			t.Fatal(err)
		}
	}
	ref.FinishLoad()
	for col, unique := range map[string]bool{"id": true, "grp": false} {
		if err := ref.AddIndex("items", col, unique); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// conformanceExecutors lists every query.Executor in the stack, each as a
// constructor of a freshly and identically loaded instance.
func conformanceExecutors() map[string]func(t *testing.T) query.Executor {
	router := func(t *testing.T, replicas int) *shard.Router {
		rt := shard.New(server.SYS1(), 0, shard.Options{
			Shards: 3, Group: replica.Options{Replicas: replicas}, Keys: map[string]string{"items": "id"},
		})
		t.Cleanup(rt.Close)
		if err := rt.LoadFrom(conformanceRef(t)); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	group := func(t *testing.T, opts replica.Options) query.Executor {
		// A one-shard router over the group does the load; the group under it
		// is the executor under test.
		rt := shard.NewWithBackends([]shard.Backend{replica.NewGroup(server.SYS1(), 0, opts)}, nil)
		t.Cleanup(rt.Close)
		if err := rt.LoadFrom(conformanceRef(t)); err != nil {
			t.Fatal(err)
		}
		return rt.Groups()[0]
	}
	return map[string]func(t *testing.T) query.Executor{
		"server": func(t *testing.T) query.Executor { return conformanceRef(t) },
		"group-sync": func(t *testing.T) query.Executor {
			return group(t, replica.Options{Replicas: 2})
		},
		"router-servers": func(t *testing.T) query.Executor { return router(t, 0) },
		"router-groups":  func(t *testing.T) query.Executor { return router(t, 1) },
		"net-client": func(t *testing.T) query.Executor {
			fd := net.NewServer(router(t, 1), net.ServerOptions{})
			if err := fd.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fd.Close)
			c, err := net.Dial(fd.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			return c
		},
	}
}

// TestExecutorConformance pins the contract every layer's twin entry points
// share: ExecBatch of k bindings returns, value for value and error text for
// error text, what k Exec calls return on an identically loaded twin — and
// every executor returns what the bare server does. Inserts are followed by
// a read-back on both twins, so what they stored is compared too.
func TestExecutorConformance(t *testing.T) {
	const insert = "insert into items values (?, ?, ?)"
	cases := []struct {
		name, sql string
		sets      [][]any
	}{
		{"point hit and miss", "select name from items where id = ?",
			[][]any{{int64(5)}, {int64(9999)}, {int64(41)}}},
		{"indexed multi-row", "select id, name from items where grp = ?",
			[][]any{{int64(1)}, {int64(6)}, {int64(77)}}},
		{"aggregate count", "select count(id) from items where grp = ?",
			[][]any{{int64(2)}, {int64(77)}}},
		{"aggregate over everything", "select max(id) from items", [][]any{{}, {}}},
		{"full scan", "select id from items where name = ?", [][]any{{"n3"}, {"zzz"}}},
		{"insert", insert,
			[][]any{{int64(1000), int64(1), "a"}, {int64(1001), int64(6), "b"}}},
		{"mixed-validity insert", insert,
			[][]any{{int64(2000), int64(1), "x"}, {int64(2001)}, {int64(2002), int64(6), "z"}}},
		{"wrong arity", "select name from items where id = ?",
			[][]any{{int64(1), int64(2)}, {int64(3)}, {}}},
		{"unknown table", "select x from nope where id = ?", [][]any{{int64(1)}, {int64(2)}}},
		{"unknown select column", "select nope from items where id = ?", [][]any{{int64(1)}, {int64(2)}}},
		{"unknown where column", "select name from items where nope = ?", [][]any{{int64(1)}, {int64(2)}}},
		{"malformed", "selec name frm items", [][]any{{int64(1)}, {}}},
	}
	readBack := query.BatchReq("back", "select id, name from items where grp = ?", [][]any{{int64(1)}, {int64(6)}})

	render := func(v any, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return interp.Format(v)
	}
	for _, tc := range cases {
		// The reference: the bare server's per-binding Exec answers.
		var want []string
		ref := conformanceRef(t)
		for _, args := range tc.sets {
			want = append(want, render(ref.Exec(query.Req("q", tc.sql, args)).Pair()))
		}
		for kind, mk := range conformanceExecutors() {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				single, batched := mk(t), mk(t)
				br := batched.ExecBatch(query.BatchReq("q", tc.sql, tc.sets))
				if len(br.Values) != len(tc.sets) || len(br.Errs) != len(tc.sets) {
					t.Fatalf("ExecBatch returned %d values, %d errors for %d bindings",
						len(br.Values), len(br.Errs), len(tc.sets))
				}
				for i, args := range tc.sets {
					one := render(single.Exec(query.Req("q", tc.sql, args)).Pair())
					if got := render(br.Values[i], br.Errs[i]); got != one {
						t.Errorf("binding %d %v: ExecBatch %q, Exec %q", i, args, got, one)
					}
					if one != want[i] {
						t.Errorf("binding %d %v: Exec %q, bare server %q", i, args, one, want[i])
					}
				}
				a, b := single.ExecBatch(readBack), batched.ExecBatch(readBack)
				for i := range readBack.ArgSets {
					if x, y := render(a.Values[i], a.Errs[i]), render(b.Values[i], b.Errs[i]); x != y {
						t.Errorf("read-back %d: after Exec calls %q, after ExecBatch %q", i, x, y)
					}
				}
			})
		}
	}
}
