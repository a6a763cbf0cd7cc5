package sqlmini_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/ir"
	"repro/internal/sqlmini"
)

// A mutant is one edit of a statement: truncated at off, with the byte at off
// deleted, or with one byte inserted at off.
type mutant struct {
	name string // "trunc", "del" or "ins" plus the inserted byte
	off  int
	sql  string
}

// inserts are the bytes a mutant may insert (the same set the mini-language
// golden uses).
const inserts = `;(){}=,?!."x1`

// mutants returns n deterministic edits of sql at offsets sampled by a
// generator seeded from the statement's name.
func mutants(name, sql string, n int) []mutant {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	out := make([]mutant, 0, n)
	for len(out) < n {
		off := rng.Intn(len(sql) + 1)
		switch k := rng.Intn(2 + len(inserts)); {
		case k == 0:
			out = append(out, mutant{"trunc", off, sql[:off]})
		case k == 1 && off < len(sql):
			out = append(out, mutant{"del", off, sql[:off] + sql[off+1:]})
		case k >= 2:
			c := inserts[k-2 : k-1]
			out = append(out, mutant{"ins" + c, off, sql[:off] + c + sql[off:]})
		}
	}
	return out
}

// statement is one parser input of the golden set.
type statement struct{ name, sql string }

// statements are the SQL texts the five apps' kernels and the Table I corpus
// procedures declare, each named program.query: an app by its name, a corpus
// procedure as auction1…9 or bboard1…8.
func statements() []statement {
	var names []string
	var procs []*ir.Proc
	for _, a := range apps.All() {
		names, procs = append(names, a.Name), append(procs, a.Proc())
	}
	for _, c := range []struct {
		name   string
		corpus *apps.CorpusApp
	}{{"auction", apps.AuctionCorpus()}, {"bboard", apps.BulletinCorpus()}} {
		for i, p := range c.corpus.Procs {
			names, procs = append(names, fmt.Sprintf("%s%d", c.name, i+1)), append(procs, p)
		}
	}
	var out []statement
	for i, p := range procs {
		for _, q := range p.Queries {
			out = append(out, statement{names[i] + "." + q.Name, q.SQL})
		}
	}
	return out
}

// mutantsPerStatement sizes the golden at about 3 000 cases.
const mutantsPerStatement = 128

// stmtFields renders every parsed field of st.
func stmtFields(st *sqlmini.Stmt) string {
	return fmt.Sprintf("%v %q %d %q %q %#v %v %#v %d",
		st.Insert, st.Table, st.Agg, st.AggCol, st.Cols, st.Where, st.Values, st.Lits, st.NumParams)
}

// renderParseGolden parses every mutant of every statement and writes one
// line per mutant: the statement, the edit, its offset, and Parse's exact
// error or "ok" with an FNV-64a of the statement's fields.
func renderParseGolden() string {
	var b strings.Builder
	for _, s := range statements() {
		for _, m := range mutants(s.name, s.sql, mutantsPerStatement) {
			fmt.Fprintf(&b, "%s %s %d ", s.name, m.name, m.off)
			st, err := sqlmini.Parse(m.sql)
			if err != nil {
				b.WriteString(err.Error())
			} else {
				h := fnv.New64a()
				h.Write([]byte(stmtFields(st)))
				fmt.Fprintf(&b, "ok %016x", h.Sum64())
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestParseGolden replays testdata/parse.golden byte for byte. The file was
// written by the parser of d2a3bfb, which returned each rule's error up the
// call chain by hand; no flag regenerates it.
func TestParseGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/parse.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	got := strings.Split(renderParseGolden(), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, %d rendered", len(want), len(got))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("line %d:\n golden %s\n    got %s", i+1, want[i], got[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d lines differ", bad)
	}
}
