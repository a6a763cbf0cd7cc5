package interp

import (
	"errors"
	"testing"

	"repro/internal/ir"
	"repro/internal/minilang"
)

// The compiled evaluator lends builtins their arguments from the machine's
// stack and returns single results through a slot on the Interp; query
// arguments are windows of a per-run slab. These tests hold the contracts
// that makes safe (see Builtin).

func TestNestedCallsSeeTheirOwnArguments(t *testing.T) {
	rs := Rows{{"a": int64(1), "b": "x"}, {"a": int64(2), "b": "y"}}
	res := run(t, `
proc n(rs, a, b, c) {
  x = field(rowat(rs, 1), "a");
  l = concat(list(a, b), list(c));
  m = max(min(a, size(list(a, b, c, a))), field(rowat(rs, 0), "a"));
  return x, l, m;
}`, rs, int64(5), int64(6), int64(7))
	if got := Format(NewList(res.Returned...)); got != "[2, [5, 6, 7], 4]" {
		t.Fatalf("got %s", got)
	}
}

func TestKeptArgumentsSurviveTheNextCall(t *testing.T) {
	res := run(t, `
proc k(a) {
  l = list(a, 2);
  p = list();
  push(p, a);
  push(p, list(a, 3));
  k = list(7, 8, 9);
  q = first(p);
  return l, p, k, q;
}`, int64(1))
	if got := Format(NewList(res.Returned...)); got != "[[1, 2], [1, [1, 3]], [7, 8, 9], 1]" {
		t.Fatalf("got %s", got)
	}
}

func TestSingleResultsAreReadBeforeTheNextCall(t *testing.T) {
	res := run(t, `
proc s(a, b) {
  q, r = divmod(a, b);
  lo = min(q, r);
  hi = max(q, r);
  return q, r, lo, hi, size(list(q, r)), divmod(b, a);
}`, int64(17), int64(5))
	if got := Format(NewList(res.Returned...)); got != "[3, 2, 2, 3, 2, 0]" {
		t.Fatalf("got %s", got)
	}
}

// A builtin that fails while a later argument of an enclosing call is being
// evaluated leaves nothing on the stack: the next call on the same machine
// sees exactly its own arguments, and no value stays reachable.
func TestFailedArgumentLeavesTheStackClean(t *testing.T) {
	in := New(ir.NewRegistry(), nil)
	var seen []Value
	in.Bind("probe", func(a []Value) ([]Value, error) {
		seen = append([]Value(nil), a...)
		return in.one(int64(len(a))), nil
	})
	in.Bind("boom", func([]Value) ([]Value, error) { return nil, errors.New("boom") })
	lit := func(i int64) ir.Expr { return &ir.Lit{V: i} }
	call := func(fn string, args ...ir.Expr) *ir.Call { return &ir.Call{Fn: fn, Args: args} }

	proc := &ir.Proc{Name: "p", Body: &ir.Block{}}
	c := &compiler{prog: &Program{proc: proc, slots: ir.BuildSlots(proc)}, queryIdx: map[string]int{}}
	failing := c.expr(call("probe", lit(1), call("probe", lit(2), lit(3)), call("boom", lit(4))))
	next := c.expr(call("probe", lit(5), lit(6)))
	m := &machine{in: in, prog: c.prog, calls: make([]Builtin, len(c.prog.calls)), max: 1000}

	if _, err := failing(m); err == nil || err.Error() != "boom: boom" {
		t.Fatalf("failing call: err %v, want boom: boom", err)
	}
	if len(m.stack) != 0 {
		t.Fatalf("stack holds %d values after the failed call", len(m.stack))
	}
	for i, v := range m.stack[:cap(m.stack)] {
		if v != nil {
			t.Fatalf("stack slot %d still holds %v", i, v)
		}
	}
	v, err := next(m)
	if err != nil || v != int64(2) {
		t.Fatalf("next call: %v, %v", v, err)
	}
	if got := Format(NewList(seen...)); got != "[5, 6]" {
		t.Fatalf("next call saw %s, want [5, 6]", got)
	}
}

// keepingService keeps every argument list it is given, as the coalescer
// does until a batch is encoded, and appends to each to show that no
// neighbour is overwritten.
type keepingService struct{ kept [][]Value }

func (s *keepingService) Exec(_, _ string, args []Value) (Value, error) {
	s.kept = append(s.kept, args)
	_ = append(args, "appended")
	return nil, nil
}

func (s *keepingService) Submit(name, sql string, args []Value) (Handle, error) {
	v, _ := s.Exec(name, sql, args)
	return doneHandle{v}, nil
}

type doneHandle struct{ v Value }

func (h doneHandle) Fetch() (Value, error) { return h.v, nil }

func TestQueryArgumentsMayBeKept(t *testing.T) {
	svc := &keepingService{}
	in := New(ir.NewRegistry(), svc)
	const n = 300 // past one slab chunk of two-argument windows
	_, err := in.Run(minilang.MustParse(`
proc q(n) {
  query q1 = "select ?, ?";
  i = 0;
  while (i < n) {
    h = submit(q1, i, i + 1000);
    x = execQuery(q1, i + 2000, i);
    i = i + 1;
  }
  return 0;
}`), []Value{int64(n)})
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.kept) != 2*n {
		t.Fatalf("service kept %d argument lists, want %d", len(svc.kept), 2*n)
	}
	for i := 0; i < n; i++ {
		sub, ex := svc.kept[2*i], svc.kept[2*i+1]
		if len(sub) != 2 || cap(sub) != 2 || sub[0] != int64(i) || sub[1] != int64(i+1000) {
			t.Fatalf("submission %d kept %v (cap %d)", i, sub, cap(sub))
		}
		if len(ex) != 2 || cap(ex) != 2 || ex[0] != int64(i+2000) || ex[1] != int64(i) {
			t.Fatalf("execQuery %d kept %v (cap %d)", i, ex, cap(ex))
		}
	}
}

func TestRecordFieldSetTwiceKeepsOneEntry(t *testing.T) {
	r := &Record{}
	r.Set("a", int64(1))
	r.Set("a", int64(2))
	if got := Format(r); got != "record{a=2}" {
		t.Fatalf("got %s", got)
	}
	want := &Record{}
	want.Set("a", int64(2))
	if !Equivalent(r, want) {
		t.Fatal("record set twice is not equivalent to one set once")
	}

	res := run(t, `proc r() { record r0; r0.v = 1; r0.w = 2; r0.v = 3; r0.x = 4; r0.w = 5; return r0; }`)
	if got := Format(res.Returned[0]); got != "record{v=3, w=5, x=4}" {
		t.Fatalf("got %s", got)
	}
}

// Format of a record sorts its keys, whatever order they were set in, and
// reads as it did when a record was a map.
func TestRecordFormat(t *testing.T) {
	r := &Record{}
	if got := Format(r); got != "record{}" {
		t.Fatalf("empty record: %s", got)
	}
	r.Set("zeta", int64(1))
	r.Set("alpha", "s")
	r.Set("mid", NewList(int64(1), int64(2)))
	r.Set("nul", nil)
	if got, want := Format(r), "record{alpha=s, mid=[1, 2], nul=null, zeta=1}"; got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
	if _, ok := r.Get("absent"); ok {
		t.Fatal("an unset field reads as set")
	}
	if v, ok := r.Get("nul"); !ok || v != nil {
		t.Fatalf("a field set to null reads %v, %v", v, ok)
	}
}

func TestRecordEquivalenceIgnoresSetOrder(t *testing.T) {
	build := func(kv ...Value) *Record {
		r := &Record{}
		for i := 0; i < len(kv); i += 2 {
			r.Set(kv[i].(string), kv[i+1])
		}
		return r
	}
	a := build("x", int64(1), "y", "two", "z", NewList(int64(3)))
	b := build("z", NewList(int64(3)), "x", int64(1), "y", "two")
	if !Equivalent(a, b) || !Equivalent(b, a) {
		t.Fatal("same fields in a different set order are not equivalent")
	}
	if Equivalent(a, build("x", int64(1), "y", "two")) {
		t.Fatal("a record with a field fewer is equivalent")
	}
	if Equivalent(a, build("x", int64(1), "y", "two", "w", NewList(int64(3)))) {
		t.Fatal("a record with a differently named field is equivalent")
	}
	if Equivalent(a, build("x", int64(1), "y", "two", "z", NewList(int64(4)))) {
		t.Fatal("a record with a different value is equivalent")
	}
}
