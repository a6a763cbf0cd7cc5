package interp

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/minilang"
)

// TestBuiltinsNoAppCalls runs the builtins no app program calls (rowcount,
// tostr, hash, readInputCategory) through both evaluators. Only rowcount has a
// wrong-type error: tostr and hash take any value through Format.
func TestBuiltinsNoAppCalls(t *testing.T) {
	rows := Rows{{"a": int64(1)}, {"a": int64(2)}, {"a": int64(3)}}
	cases := []struct {
		name string
		src  string
		arg  Value
		want Value  // nil when the run must fail
		frag string // the error's text when want is nil
	}{
		{"rowcount", `proc p(x) { y = rowcount(x); return y; }`, rows, int64(3), ""},
		{"rowcount-empty", `proc p(x) { y = rowcount(x); return y; }`, Rows{}, int64(0), ""},
		{"rowcount-int", `proc p(x) { y = rowcount(x); return y; }`, int64(3), nil, "rowcount of int"},
		{"rowcount-list", `proc p(x) { y = rowcount(x); return y; }`, NewList(int64(1)), nil, "rowcount of list"},
		{"tostr-int", `proc p(x) { y = tostr(x); return y; }`, int64(-42), "-42", ""},
		{"tostr-list", `proc p(x) { y = tostr(x); return y; }`, NewList(int64(1), "a"), "[1, a]", ""},
		{"tostr-rows", `proc p(x) { y = tostr(x); return y; }`, rows[:1], "rows({a=1})", ""},
		// FNV-1a over Format's text, from a non-standard offset basis, so
		// an int and its decimal string hash alike.
		{"hash-int", `proc p(x) { y = hash(x); return y; }`, int64(5), int64(4953219431746326082), ""},
		{"hash-str", `proc p(x) { y = hash(x); return y; }`, "5", int64(4953219431746326082), ""},
		{"hash-list", `proc p(x) { y = hash(x); return y; }`, NewList(int64(1), "a"), int64(8620415595108964181), ""},
		{"readInputCategory", `proc p(x) { y = readInputCategory(); return y; }`, int64(0), int64(100), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			proc := minilang.MustParse(c.src)
			for _, ev := range []struct {
				name string
				run  func(*Interp, *ir.Proc, []Value) (*Result, error)
			}{{"Run", (*Interp).Run}, {"RunTree", (*Interp).RunTree}} {
				res, err := ev.run(New(ir.NewRegistry(), nil), proc, []Value{c.arg})
				switch {
				case c.want == nil && err == nil:
					t.Errorf("%s: returned %v, want an error mentioning %q", ev.name, Format(res.Returned[0]), c.frag)
				case c.want == nil && !strings.Contains(err.Error(), c.frag):
					t.Errorf("%s: error %q does not mention %q", ev.name, err, c.frag)
				case c.want != nil && err != nil:
					t.Errorf("%s: %v", ev.name, err)
				case c.want != nil && !Equal(res.Returned[0], c.want):
					t.Errorf("%s: returned %v, want %v", ev.name, Format(res.Returned[0]), Format(c.want))
				}
			}
		})
	}
}
