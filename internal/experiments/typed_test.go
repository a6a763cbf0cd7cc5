package experiments

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/net"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
)

// boxedLeg offers the router only a group's public Exec and ExecBatch, as a
// tracing shim or a test fake does (embedding the interface hides the group's
// Do): its row results arrive as interp.Rows, and rows counts them.
type boxedLeg struct {
	shard.Backend
	rows *atomic.Int64
}

func (b boxedLeg) Exec(req query.Request) query.Result {
	res := b.Backend.Exec(req)
	if rows, ok := res.Value.(interp.Rows); ok {
		b.rows.Add(int64(len(rows)))
	}
	return res
}

func (b boxedLeg) ExecBatch(req query.BatchRequest) query.BatchResult {
	res := b.Backend.ExecBatch(req)
	for _, v := range res.Values {
		if rows, ok := v.(interp.Rows); ok {
			b.rows.Add(int64(len(rows)))
		}
	}
	return res
}

// checkTyped fails unless v, if it is a row result with rows, is typed
// columns: a *interp.RowSet whose every column is Ints or Strs, or boxed rows
// that lift to one. It reports whether v was such a result.
func checkTyped(t *testing.T, sql string, v any) bool {
	t.Helper()
	switch x := v.(type) {
	case *interp.RowSet:
		for k, c := range x.Cols {
			if (c.Ints == nil) == (c.Strs == nil) && x.N > 0 {
				t.Fatalf("%q: column %q of %d rows is not one of Ints and Strs", sql, x.Header.Names[k], x.N)
			}
		}
		return x.N > 0
	case interp.Rows:
		if _, ok := interp.LiftRows(x); !ok {
			t.Fatalf("%q: rows that are not typed columns: %s", sql, interp.Format(x))
		}
		return len(x) > 0
	}
	return false
}

// TestServedRowResultsAreTyped is the premise the wire's two column forms
// rest on. Every row result a router of replica groups serves for the apps'
// random workloads is typed columns, one shard of them answering boxed rows
// that the merge lifts. And a backend that does answer rows which are not
// typed columns costs its client that request alone: over TCP the request
// gets an error, and the same connection serves the next one.
func TestServedRowResultsAreTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(20110411))
	group := replica.Options{Replicas: 1, Durability: wal.Group}
	for _, app := range apps.All() {
		t.Run(app.Name, func(t *testing.T) {
			ref := server.New(server.SYS1(), 0)
			t.Cleanup(ref.Close)
			if err := app.Setup(ref, apps.SeededRand()); err != nil {
				t.Fatalf("setup: %v", err)
			}
			var lifted atomic.Int64
			r := shard.NewWithBackends([]shard.Backend{
				replica.NewGroup(server.SYS1(), 0, group),
				boxedLeg{replica.NewGroup(server.SYS1(), 0, group), &lifted},
				replica.NewGroup(server.SYS1(), 0, group),
			}, app.ShardKeys)
			t.Cleanup(r.Close)
			if err := r.LoadFrom(ref); err != nil {
				t.Fatal(err)
			}
			results := 0
			// Chunks of ops generated from the reference's state, which runs
			// them too, so that later chunks read rows earlier ones inserted.
			for chunk := 0; chunk < 10; chunk++ {
				for _, op := range apps.RandomWorkload(ref, 20, rng) {
					c := query.BatchCall(query.BatchReq("w", op.SQL, op.ArgSets))
					if !op.Batch() {
						c = query.Call{Request: query.Req("w", op.SQL, op.ArgSets[0])}
					}
					var rep, refRep query.Reply
					own := c
					ref.Do(&own, &refRep)
					r.Do(&c, &rep)
					for _, v := range append([]any{rep.Value}, rep.Values...) {
						if checkTyped(t, op.SQL, v) {
							results++
						}
					}
				}
			}
			if results == 0 || lifted.Load() == 0 {
				t.Fatalf("%d row results with rows, %d rows from the boxed shard: the workload did not reach both forms", results, lifted.Load())
			}
		})
	}

	untyped := map[string]interp.Rows{
		"mixed":  {{"a": int64(1)}, {"a": "x"}},
		"hetero": {{"a": int64(1)}, {"b": int64(2)}},
		"null":   {{"a": nil}},
	}
	typed := interp.Rows{{"a": int64(1), "b": "x"}}
	fake := &fakeExecutor{exec: func(req query.Request) query.Result {
		if rows, ok := untyped[req.Name]; ok {
			return query.Ok(rows)
		}
		return query.Ok(typed)
	}}
	door := net.NewServer(fake, net.ServerOptions{})
	if err := door.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(door.Close)
	cl, err := net.Dial(door.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for name := range untyped {
		res := cl.Exec(query.Req(name, "select a from t", nil))
		if res.Err == nil || !strings.Contains(res.Err.Error(), "cannot encode rows") {
			t.Errorf("%s rows answered %s, %v; want an encode error", name, interp.Format(res.Value), res.Err)
		}
		_, errs := cl.ExecBatch(query.BatchReq(name, "select a from t", [][]any{{int64(1)}, {int64(2)}})).Pair()
		for i, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "cannot encode rows") {
				t.Errorf("%s rows in a batch answered binding %d with %v; want an encode error", name, i, err)
			}
		}
		if v, err := cl.Exec(query.Req("typed", "select a, b from t", nil)).Pair(); err != nil || !interp.Equal(v, typed) {
			t.Fatalf("after %s rows the connection answered %s, %v; want %s", name, interp.Format(v), err, interp.Format(typed))
		}
	}
}

// fakeExecutor answers each request with exec, and each batch binding too.
type fakeExecutor struct {
	exec func(query.Request) query.Result
}

func (f *fakeExecutor) Exec(req query.Request) query.Result { return f.exec(req) }

func (f *fakeExecutor) ExecBatch(req query.BatchRequest) query.BatchResult {
	res := query.BatchResult{Values: make([]any, len(req.ArgSets)), Errs: make([]error, len(req.ArgSets))}
	for i, args := range req.ArgSets {
		r := f.exec(query.Req(req.Name, req.SQL, args))
		res.Values[i], res.Errs[i] = r.Value, r.Err
	}
	return res
}
