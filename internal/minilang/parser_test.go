package minilang

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func TestParseSimpleProc(t *testing.T) {
	p := MustParse(`
proc add(a, b) {
  c = a + b;
  return c;
}`)
	if p.Name != "add" || len(p.Params) != 2 {
		t.Fatalf("bad proc header: %+v", p)
	}
	if len(p.Body.Stmts) != 2 {
		t.Fatalf("want 2 statements, got %d", len(p.Body.Stmts))
	}
	if _, ok := p.Body.Stmts[0].(*ir.Assign); !ok {
		t.Fatalf("want assign, got %T", p.Body.Stmts[0])
	}
}

func TestParseQueryDecls(t *testing.T) {
	p := MustParse(`
proc q(x) {
  query q1 = "select a from t where k = ?";
  query q2 = "insert into t values (?)";
  v = execQuery(q1, x);
  execUpdate(q2, v);
  return v;
}`)
	if len(p.Queries) != 2 {
		t.Fatalf("want 2 queries, got %d", len(p.Queries))
	}
	if q := p.Queries[0]; q.Name != "q1" || q.SQL != "select a from t where k = ?" {
		t.Fatalf("first query declaration = %+v", q)
	}
	eq := p.Body.Stmts[0].(*ir.ExecQuery)
	if eq.Kind != ir.QuerySelect || eq.Lhs != "v" {
		t.Fatalf("bad exec query: %+v", eq)
	}
	up := p.Body.Stmts[1].(*ir.ExecQuery)
	if up.Kind != ir.QueryUpdate || up.Lhs != "" {
		t.Fatalf("bad update: %+v", up)
	}
}

func TestParseGuards(t *testing.T) {
	p := MustParse(`
proc g(x) {
  c = x > 0;
  c ? y = 1;
  !c ? y = 2;
  return y;
}`)
	s1 := p.Body.Stmts[1]
	if g := s1.GetGuard(); g == nil || g.Var != "c" || g.Neg {
		t.Fatalf("bad guard: %v", g)
	}
	s2 := p.Body.Stmts[2]
	if g := s2.GetGuard(); g == nil || g.Var != "c" || !g.Neg {
		t.Fatalf("bad negated guard: %v", g)
	}
}

func TestParseCompound(t *testing.T) {
	p := MustParse(`
proc c(xs, t0) {
  s = 0;
  while (s < 10) {
    s = s + 1;
  }
  foreach x in xs {
    s = s + x;
  }
  if (s > 5) {
    print(s);
  } else {
    log(s);
  }
  scan r in t0 {
    load v = r.v;
  }
  return s;
}`)
	kinds := []string{}
	for _, s := range p.Body.Stmts {
		switch s.(type) {
		case *ir.Assign:
			kinds = append(kinds, "assign")
		case *ir.While:
			kinds = append(kinds, "while")
		case *ir.ForEach:
			kinds = append(kinds, "foreach")
		case *ir.If:
			kinds = append(kinds, "if")
		case *ir.Scan:
			kinds = append(kinds, "scan")
		case *ir.Return:
			kinds = append(kinds, "return")
		}
	}
	want := "assign,while,foreach,if,scan,return"
	if strings.Join(kinds, ",") != want {
		t.Fatalf("got %v, want %s", kinds, want)
	}
}

func TestParseRecordStmts(t *testing.T) {
	p := MustParse(`
proc r() {
  table t0;
  record r0;
  r0.v = 3;
  append(t0, r0);
  scan r1 in t0 {
    load w = r1.v;
    print(w);
  }
  return 0;
}`)
	if _, ok := p.Body.Stmts[0].(*ir.DeclTable); !ok {
		t.Fatal("want table decl")
	}
	sf := p.Body.Stmts[2].(*ir.SetField)
	if sf.Record != "r0" || sf.Field != "v" {
		t.Fatalf("bad setfield %+v", sf)
	}
}

func TestParseSubmitFetch(t *testing.T) {
	p := MustParse(`
proc s(x) {
  query q = "select a from t where k = ?";
  h = submit(q, x);
  v = fetch(h);
  return v;
}`)
	if _, ok := p.Body.Stmts[0].(*ir.Submit); !ok {
		t.Fatalf("want submit, got %T", p.Body.Stmts[0])
	}
	if _, ok := p.Body.Stmts[1].(*ir.Fetch); !ok {
		t.Fatalf("want fetch, got %T", p.Body.Stmts[1])
	}
}

func TestParseExprPrecedence(t *testing.T) {
	p := MustParse(`proc e(a, b) { c = a + b * 2 == a && b < 3 || !a; return c; }`)
	got := ir.PrintExpr(p.Body.Stmts[0].(*ir.Assign).Rhs)
	want := "a + b * 2 == a && b < 3 || !a"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`proc`,
		`proc p( { }`,
		`proc p() { x = ; }`,
		`proc p() { x = 1 }`,                     // missing ;
		`proc p() { return 1; x = 2; }`,          // stmt after return
		`proc p() { while (1) { return 1; } }`,   // return inside loop
		`proc p() { if (x) { query q = "s"; } }`, // query not at top level... parsed as expr stmt -> error
		`proc p() { x = "unterminated; }`,
		`proc p() { foo(); } trailing`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
	// An integer literal int64 cannot hold is rejected where it starts.
	const want = `minilang:1:16: bad number "99999999999999999999"`
	if _, err := Parse(`proc p() { x = 99999999999999999999; }`); err == nil || err.Error() != want {
		t.Errorf("out-of-range literal: got %v, want %s", err, want)
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("proc p() {\n  x = ;\n}")
	if err == nil {
		t.Fatal("want error")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("want *Error, got %T", err)
	}
	if perr.Line != 2 {
		t.Errorf("want line 2, got %d", perr.Line)
	}
}

// TestRoundTrip: Print(Parse(x)) must re-parse to a structurally equal proc.
func TestRoundTrip(t *testing.T) {
	srcs := []string{
		`proc a(xs) {
  query q = "select count(x) from t where k = ?";
  s = 0;
  foreach x in xs {
    v = execQuery(q, x);
    c = v > 3;
    c ? s = s + v;
    !c ? print(x, "skipped");
  }
  return s;
}`,
		`proc b(n) {
  table t0;
  i = 0;
  while (i < n) {
    record r0;
    r0.i = i * 2 - 1;
    append(t0, r0);
    i = i + 1;
  }
  scan r in t0 {
    load v = r.i;
    print(v);
  }
  return i;
}`,
		`proc c(a) {
  if (a % 2 == 0 && a > 10) {
    x = divmod(a, 3);
  } else {
    x = -a;
  }
  return x;
}`,
		`proc d(n) {
  query u = "update t set v = v + 1 where k = ?";
  table t0;
  i = 0;
  while (i < n) {
    record r0;
    h = submitUpdate(u, i);
    r0.h = h;
    append(t0, r0);
    i = i + 1;
  }
  scan r in t0 {
    record r1;
    copy r1.h = r.h;
    load h = r1.h;
    fetch(h);
  }
  return i;
}`,
	}
	for _, src := range srcs {
		p1 := MustParse(src)
		printed := ir.Print(p1)
		p2, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-parse failed: %v\n%s", err, printed)
		}
		if !ir.EqualProc(p1, p2) {
			t.Fatalf("round trip changed structure:\n%s\nvs\n%s", printed, ir.Print(p2))
		}
	}
}

// TestRoundTripQuick: random expression trees survive print→parse→print.
func TestRoundTripQuick(t *testing.T) {
	prop := func(a, b int8, op uint8) bool {
		ops := []string{"+", "-", "*", "==", "<", "&&", "||"}
		e := &ir.Bin{
			Op: ops[int(op)%len(ops)],
			L:  &ir.Bin{Op: "+", L: ir.V("x"), R: ir.IntLit(int64(a))},
			R:  &ir.Un{Op: "-", X: ir.IntLit(int64(b))},
		}
		src := "proc p(x) { y = " + ir.PrintExpr(e) + "; return y; }"
		p, err := Parse(src)
		if err != nil {
			return false
		}
		return ir.PrintExpr(p.Body.Stmts[0].(*ir.Assign).Rhs) == ir.PrintExpr(e)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
