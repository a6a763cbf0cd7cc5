package sqlmini_test

import (
	"testing"

	"repro/internal/sqlmini"
)

// FuzzParse holds Parse to its contract on any input: it returns, without a
// panic, and a statement it accepts is consistent: one literal slot per
// inserted value, and every parameter ordinal below NumParams. The seeds are
// the parse golden's statements and their mutants.
func FuzzParse(f *testing.F) {
	for _, s := range statements() {
		f.Add(s.sql)
		for _, m := range mutants(s.name, s.sql, mutantsPerStatement) {
			f.Add(m.sql)
		}
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := sqlmini.Parse(sql)
		if err != nil {
			return
		}
		if len(st.Values) != len(st.Lits) {
			t.Fatalf("%d values, %d literal slots", len(st.Values), len(st.Lits))
		}
		for _, c := range st.Where {
			if c.Param >= st.NumParams {
				t.Fatalf("WHERE %s binds parameter %d of %d", c.Col, c.Param, st.NumParams)
			}
		}
		for i, v := range st.Values {
			if v >= st.NumParams {
				t.Fatalf("value %d binds parameter %d of %d", i, v, st.NumParams)
			}
		}
	})
}
