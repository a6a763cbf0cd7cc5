package server_test

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/sqlmini"
	"repro/internal/storage"
)

// rowMaps is the row result the executor built before results were columnar,
// kept as the reference: one map per matched row, keyed by the select list's
// names (or, for *, the schema's), every cell read boxed from storage.
func rowMaps(t *storage.Table, st *sqlmini.Stmt, matched []int) interp.Rows {
	out := make(interp.Rows, 0, len(matched))
	for _, rid := range matched {
		cells, r := t.Row(rid), interp.Row{}
		if len(st.Cols) == 1 && st.Cols[0] == "*" {
			for i, c := range t.Schema.Cols {
				r[c.Name] = cells[i]
			}
		} else {
			for _, name := range st.Cols {
				r[name] = cells[t.Schema.ColIndex(name)]
			}
		}
		out = append(out, r)
	}
	return out
}

// TestBoxedResultsMatchRowMaps runs the differential suites' random workloads
// over every app's schema and holds each row result the server's public
// Exec/ExecBatch return — a columnar result, boxed — to the row maps built the
// old way from the rows the statement matched: equal under interp.Equal and
// letter for letter under interp.Format, which is what those suites compare.
func TestBoxedResultsMatchRowMaps(t *testing.T) {
	total := 0
	for ai, app := range apps.All() {
		t.Run(app.Name, func(t *testing.T) {
			srv := server.New(server.SYS1(), 0)
			defer srv.Close()
			if err := app.Setup(srv, apps.SeededRand()); err != nil {
				t.Fatal(err)
			}
			checked := 0
			check := func(sql string, args []any, got any) {
				t.Helper()
				st, err := sqlmini.Parse(sql)
				if err != nil || st.Insert || st.Agg != sqlmini.AggNone {
					return
				}
				// The reference run is the single-binding one: its trace
				// names the rows the statement matched.
				one := srv.Exec(query.Req("w", sql, args))
				if one.Err != nil {
					return
				}
				want := rowMaps(srv.Catalog().Table(st.Table), st, one.Info.Matched)
				for what, v := range map[string]any{"Exec": one.Value, "ExecBatch": got} {
					if v == nil {
						continue
					}
					if _, ok := v.(interp.Rows); !ok || !interp.Equal(v, want) || interp.Format(v) != interp.Format(want) {
						t.Fatalf("%s %q %v:\n got %T %s\nwant %s", what, sql, args, v, interp.Format(v), interp.Format(want))
					}
					checked++
				}
			}
			rng := rand.New(rand.NewSource(20110411 + int64(ai)))
			for _, op := range apps.RandomWorkload(srv, 400, rng) {
				if !op.Batch() {
					check(op.SQL, op.ArgSets[0], nil)
					continue
				}
				vals, errs := srv.ExecBatch(query.BatchReq("w", op.SQL, op.ArgSets)).Pair()
				for i, args := range op.ArgSets {
					if errs[i] == nil {
						check(op.SQL, args, vals[i])
					}
				}
			}
			if checked == 0 {
				t.Fatal("no row result checked: the workload no longer exercises row selects")
			}
			total += checked
		})
	}
	if total < 500 {
		t.Fatalf("only %d row results checked over all apps", total)
	}
}
