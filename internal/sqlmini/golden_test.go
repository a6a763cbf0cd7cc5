package sqlmini_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/server"
	"repro/internal/sqlmini"
	"repro/internal/storage"
)

// digest keeps the golden file small without letting a byte go unpinned: a
// field longer than 160 bytes is written as its head, its length and the
// SHA-256 of the whole.
func digest(s string) string {
	if len(s) <= 160 {
		return s
	}
	return fmt.Sprintf("%s… (%d bytes, sha256 %x)", s[:96], len(s), sha256.Sum256([]byte(s)))
}

// executeTrace runs the calls testdata/execute.golden records, each as one
// Execute of one binding, and returns one line per call: where it ran, the
// statement and binding, then the boxed value, the error text and every
// ExecInfo field, tab separated. The calls are the differential suites' random
// workload over each app's loaded schema (a batched op is one call per
// binding; inserts land, so order matters) and then the statement-error cases
// of TestExecuteErrors and TestUnknownSelectColumnNeedsAMatch on a small table.
func executeTrace(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	call := func(where string, srv *server.Server, sql string, args []any) {
		t.Helper()
		st, err := sqlmini.Parse(sql)
		if err != nil {
			return // a parse error never reaches the executor
		}
		v, info, err := sqlmini.Execute(st, srv.Catalog(), srv.Pool(), args)
		if rs, ok := v.(*interp.RowSet); ok {
			v = rs.Rows()
		}
		errText := ""
		if err != nil {
			errText = err.Error()
		}
		line := fmt.Sprintf("%s\t%s\t%v\t%s\t%s\tpages=%d examined=%d returned=%d index=%t scan=%t matched=%s insertRids=%v",
			where, sql, args, digest(interp.Format(v)), errText,
			info.PagesTouched, info.RowsExamined, info.RowsReturned, info.UsedIndex, info.FullScan,
			digest(fmt.Sprint(info.Matched)), info.InsertRids)
		if strings.Count(line, "\t") != 5 || strings.Contains(line, "\n") {
			t.Fatalf("a field of this call holds a separator: %q", line)
		}
		out.WriteString(line + "\n")
	}

	for ai, app := range apps.All() {
		srv := server.New(server.SYS1(), 0)
		if err := app.Setup(srv, apps.SeededRand()); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(20110411 + int64(ai)))
		for _, op := range apps.RandomWorkload(srv, 120, rng) {
			for _, args := range op.ArgSets {
				call(app.Name, srv, op.SQL, args)
			}
		}
		srv.Close()
	}

	srv := server.New(server.SYS1(), 0)
	defer srv.Close()
	part := srv.Catalog().CreateTable("part", storage.NewSchema(
		storage.Column{Name: "partkey", Type: storage.TInt},
		storage.Column{Name: "p_category", Type: storage.TInt},
		storage.Column{Name: "label", Type: storage.TString},
	))
	for i := int64(0); i < 200; i++ {
		if _, err := part.Insert([]any{i, i % 10, fmt.Sprintf("p%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	srv.FinishLoad()
	if err := srv.AddIndex("part", "p_category", false); err != nil {
		t.Fatal(err)
	}
	one := []any{int64(3)}
	for _, c := range []struct {
		sql  string
		args []any
	}{
		{"select partkey from part where p_category = ?", nil},                       // wrong arity
		{"select partkey from part where p_category = ?", []any{int64(1), int64(2)}}, // wrong arity
		{"select partkey from nosuch where p_category = ?", one},                     // unknown table
		{"insert into nosuch values (?)", one},
		{"select partkey from part where ghost = ?", one}, // unknown WHERE column
		{"select count(partkey) from part where ghost = ? and p_category = ?", []any{int64(1), int64(3)}},
		{"select ghost from part where p_category = ?", one},               // unknown select column, matches
		{"select ghost from part where p_category = ?", []any{int64(999)}}, // ... and none
		{"select partkey, nosuch from part where p_category = ?", one},
		{"select alsonot, alsonot, nosuch from part where p_category = ?", one},
		{"select max(ghost) from part where p_category = ?", one}, // unknown aggregate column
		{"select max(ghost) from part where p_category = ?", []any{int64(999)}},
		{"insert into part values (?)", one},                                        // insert arity
		{"insert into part values (?, ?, ?)", []any{int64(1)}},                      // parameter arity on an insert
		{"select max(label) from part where p_category = ?", one},                   // aggregate over a string column
		{"select sum(label) from part where partkey = ?", []any{int64(999)}},        // ... over no rows
		{"select partkey, label from part where p_category = ?", []any{int64(999)}}, // zero-match select
		{"select * from part where partkey = ?", []any{int64(999)}},
		{"select partkey, label from part where partkey = ?", []any{int64(42)}}, // full scan
		{"select count(partkey) from part where label = ?", []any{"p7"}},
		{"select min(partkey) from part where label = ?", []any{"nope"}},
		{"select partkey from part where partkey = ?", []any{"a string"}},    // a key no int column holds
		{"select label, partkey, label from part where p_category = ?", one}, // duplicate select column
		{"select * from part where p_category = ? and partkey = ?", []any{int64(3), int64(13)}},
		{"insert into part values (?, ?, ?)", []any{int64(200), int64(3), "p200"}},
		{"insert into part values (?, 3, 'lit')", []any{int64(201)}},
		{"select count(partkey) from part where p_category = ?", one},
	} {
		call("errors", srv, c.sql, c.args)
	}
	return out.Bytes()
}

// TestExecuteGoldenTrace replays testdata/execute.golden, which the parent
// commit's separate per-query Execute wrote, on the one kernel: byte for byte
// for a call that succeeds. For a call that fails only the value and the error
// text are held (no layer reads a failed call's ExecInfo: Server.Do returns
// before the CPU charge).
func TestExecuteGoldenTrace(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "execute.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(golden), "\n")
	got := strings.Split(string(executeTrace(t)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines, the golden trace has %d", len(got), len(want))
	}
	failed := 0
	for i := range want {
		g, w := got[i], want[i]
		if f := strings.Split(w, "\t"); len(f) == 6 && f[4] != "" {
			failed++
			g, w = g[:strings.LastIndex(g, "\t")], w[:strings.LastIndex(w, "\t")]
		}
		if g != w {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
	if failed < 20 || len(want)-failed < 500 {
		t.Fatalf("the golden trace holds %d failing and %d succeeding calls; it no longer covers both", failed, len(want)-failed)
	}
}
