package interp

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/minilang"
)

func run(t *testing.T, src string, args ...Value) *Result {
	t.Helper()
	in := New(ir.NewRegistry(), nil)
	res, err := in.Run(minilang.MustParse(src), args)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func runErr(t *testing.T, src string, args ...Value) error {
	t.Helper()
	in := New(ir.NewRegistry(), nil)
	_, err := in.Run(minilang.MustParse(src), args)
	if err == nil {
		t.Fatalf("expected error")
	}
	return err
}

func TestArithmetic(t *testing.T) {
	res := run(t, `proc a(x) { y = (x + 3) * 2 - 8 / 4 % 3; return y; }`, int64(5))
	if res.Returned[0] != int64(14) {
		t.Fatalf("got %v", res.Returned[0])
	}
}

func TestShortCircuit(t *testing.T) {
	// RHS of && must not evaluate when LHS is false: division by zero
	// would fail otherwise.
	res := run(t, `proc sc(x) { ok = x > 100 && 1 / (x - x) == 0; return ok; }`, int64(5))
	if res.Returned[0] != false {
		t.Fatalf("got %v", res.Returned[0])
	}
}

func TestWhileAndGuards(t *testing.T) {
	res := run(t, `
proc g(n) {
  i = 0;
  even = 0;
  odd = 0;
  while (i < n) {
    c = i % 2 == 0;
    c ? even = even + 1;
    !c ? odd = odd + 1;
    i = i + 1;
  }
  return even, odd;
}`, int64(7))
	if res.Returned[0] != int64(4) || res.Returned[1] != int64(3) {
		t.Fatalf("got %v", res.Returned)
	}
}

func TestListValueSemantics(t *testing.T) {
	// Assignment copies: mutating the original must not affect the copy.
	res := run(t, `
proc v(l) {
  snapshot = l;
  x = removeFirst(l);
  return size(snapshot), size(l), x;
}`, NewList(int64(1), int64(2), int64(3)))
	if res.Returned[0] != int64(3) || res.Returned[1] != int64(2) || res.Returned[2] != int64(1) {
		t.Fatalf("value semantics broken: %v", res.Returned)
	}
}

func TestRecordTableConditionalLoad(t *testing.T) {
	res := run(t, `
proc rt(n) {
  table t0;
  i = 0;
  while (i < n) {
    record r0;
    c = i % 2 == 0;
    c ? r0.v = i * 10;
    append(t0, r0);
    i = i + 1;
  }
  v = -1;
  s = 0;
  scan r in t0 {
    load v = r.v;
    s = s + v;
  }
  return s;
}`, int64(4))
	// iterations: v set to 0, stays 0 (i=1 unset), set 20, stays 20:
	// s = 0 + 0 + 20 + 20 = 40. The conditional load preserves the prior
	// value exactly like Rule A requires.
	if res.Returned[0] != int64(40) {
		t.Fatalf("conditional load semantics: got %v, want 40", res.Returned[0])
	}
}

func TestForeachSnapshot(t *testing.T) {
	// foreach iterates a snapshot: growing the list inside the loop must
	// not extend the iteration.
	res := run(t, `
proc fs(l) {
  n = 0;
  foreach x in l {
    push(l, x + 100);
    n = n + 1;
  }
  return n, size(l);
}`, NewList(int64(1), int64(2)))
	if res.Returned[0] != int64(2) || res.Returned[1] != int64(4) {
		t.Fatalf("got %v", res.Returned)
	}
}

func TestOutputCapture(t *testing.T) {
	res := run(t, `proc o() { print(1, "a"); log(true); return 0; }`)
	want := "1 a\ntrue\n"
	if res.Output != want {
		t.Fatalf("got %q, want %q", res.Output, want)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
		args []Value
	}{
		{`proc e() { return x; }`, "undefined", nil},
		{`proc e() { y = 1 / 0; return y; }`, "division by zero", nil},
		{`proc e() { y = 1 + "a"; return y; }`, "+ on", nil},
		{`proc e() { while (3) { } return 0; }`, "not bool", nil},
		{`proc e(l) { y = removeFirst(l); return y; }`, "empty list", []Value{NewList()}},
		{`proc e() { y = nosuchfn(1); return y; }`, "not implemented", nil},
		{`proc e() { c ? y = 1; return y; }`, "guard", nil},
		{`proc e(l) { y = size(l, l); return y; }`, "expects", []Value{NewList()}},
	}
	for _, c := range cases {
		err := runErr(t, c.src, c.args...)
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("error %q does not mention %q", err, c.frag)
		}
	}
}

func TestStepLimit(t *testing.T) {
	in := New(ir.NewRegistry(), nil)
	in.MaxSteps = 1000
	_, err := in.Run(minilang.MustParse(`proc inf() { while (true) { x = 1; } return 0; }`), nil)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("want step limit error, got %v", err)
	}
}

func TestDivmod(t *testing.T) {
	res := run(t, `proc d(a, b) { q, r = divmod(a, b); return q, r; }`, int64(17), int64(5))
	if res.Returned[0] != int64(3) || res.Returned[1] != int64(2) {
		t.Fatalf("got %v", res.Returned)
	}
}

func TestFormatDeterminism(t *testing.T) {
	r := Row{"b": int64(2), "a": int64(1), "c": "x"}
	if Format(r) != "{a=1, b=2, c=x}" {
		t.Fatalf("row format not sorted: %s", Format(r))
	}
	if got := Format(Rows{}); got != "rows()" {
		t.Fatalf("empty rows format: %s", got)
	}
}

func TestEqualValues(t *testing.T) {
	if !Equal(NewList(int64(1), "a"), NewList(int64(1), "a")) {
		t.Error("equal lists")
	}
	if Equal(NewList(int64(1)), NewList(int64(2))) {
		t.Error("unequal lists")
	}
	if !Equal(Row{"a": int64(1)}, Row{"a": int64(1)}) {
		t.Error("equal rows")
	}
	if Equal(Row{"a": int64(1)}, Row{"a": int64(2)}) {
		t.Error("unequal rows")
	}
	if !Equal(Rows{{"a": int64(1)}}, Rows{{"a": int64(1)}}) {
		t.Error("equal rows slices")
	}
}

// Property: integer arithmetic in the interpreter matches Go semantics.
func TestArithQuick(t *testing.T) {
	proc := minilang.MustParse(`proc f(a, b) { c = a * 3 + b - a % 7; return c; }`)
	in := New(ir.NewRegistry(), nil)
	prop := func(a, b int32) bool {
		res, err := in.Run(proc, []Value{int64(a), int64(b)})
		if err != nil {
			return false
		}
		want := int64(a)*3 + int64(b) - int64(a)%7
		return res.Returned[0] == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: list round-trips preserve contents through record fields.
func TestListThroughRecordQuick(t *testing.T) {
	proc := minilang.MustParse(`
proc lr(l) {
  record r0;
  r0.l = l;
  clear(l);
  load m = r0.l;
  return size(m);
}`)
	in := New(ir.NewRegistry(), nil)
	prop := func(n uint8) bool {
		items := make([]Value, int(n)%20)
		for i := range items {
			items[i] = int64(i)
		}
		res, err := in.Run(proc, []Value{NewList(items...)})
		if err != nil {
			return false
		}
		// The field captured a copy before clear.
		return res.Returned[0] == int64(len(items))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
