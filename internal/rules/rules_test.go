package rules

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/minilang"
)

func parseLoop(t *testing.T, src string) (*ir.Proc, ir.Stmt) {
	t.Helper()
	p := minilang.MustParse(src)
	for _, s := range p.Body.Stmts {
		if ir.IsCompound(s) {
			return p, s
		}
	}
	t.Fatal("no loop")
	return nil, nil
}

// TestFlattenSimpleIf reproduces Rule B on the paper's Example 4 shape.
func TestFlattenSimpleIf(t *testing.T) {
	p, loop := parseLoop(t, `
proc e4(n) {
  query q = "select v from t where k = 0";
  i = 0;
  while (i < n) {
    v = foo(i);
    if (v % 2 == 0) {
      v = execQuery(q, i);
      log(v);
    }
    print(v);
    i = i + 1;
  }
  return i;
}`)
	gen := ir.NewNameGen(p)
	body := loop.(*ir.While).Body
	if err := Flatten(body, gen); err != nil {
		t.Fatal(err)
	}
	for _, s := range body.Stmts {
		if _, ok := s.(*ir.If); ok {
			t.Fatal("if statement survived flattening")
		}
	}
	// The query and log must now carry the same guard; print none.
	var qg, lg *ir.Guard
	sawPrint := false
	for _, s := range body.Stmts {
		switch x := s.(type) {
		case *ir.ExecQuery:
			qg = x.GetGuard()
		case *ir.CallStmt:
			if x.Call.Fn == "log" {
				lg = x.GetGuard()
			}
			if x.Call.Fn == "print" {
				sawPrint = true
				if x.GetGuard() != nil {
					t.Error("print must stay unconditional")
				}
			}
		}
	}
	if qg == nil || !qg.Equal(lg) {
		t.Errorf("query guard %v and log guard %v must match", qg, lg)
	}
	if !sawPrint {
		t.Error("print lost")
	}
}

// TestFlattenNestedIfElse: nested conditionals compose through fresh guard
// variables; else branches get their own variable under an outer guard.
func TestFlattenNestedIfElse(t *testing.T) {
	p, loop := parseLoop(t, `
proc nested(n) {
  i = 0;
  a = 0;
  while (i < n) {
    if (i % 2 == 0) {
      if (i % 3 == 0) {
        a = a + 1;
      } else {
        a = a + 10;
      }
    } else {
      a = a + 100;
    }
    i = i + 1;
  }
  return a;
}`)
	gen := ir.NewNameGen(p)
	body := loop.(*ir.While).Body
	if err := Flatten(body, gen); err != nil {
		t.Fatal(err)
	}
	for _, s := range body.Stmts {
		if ir.IsCompound(s) {
			t.Fatalf("compound survived: %s", ir.PrintStmt(s))
		}
	}
}

// TestFlattenRejectsNestedLoop: a loop under a conditional cannot flatten.
func TestFlattenRejectsNestedLoop(t *testing.T) {
	p, loop := parseLoop(t, `
proc bad(n) {
  i = 0;
  while (i < n) {
    if (i % 2 == 0) {
      while (i < 3) {
        i = i + 1;
      }
    }
    i = i + 1;
  }
  return i;
}`)
	gen := ir.NewNameGen(p)
	err := Flatten(loop.(*ir.While).Body, gen)
	if err == nil {
		t.Fatal("expected flatten failure")
	}
	var na *NotApplicableError
	if !asNA(err, &na) || na.Reason != ReasonUnflattenable {
		t.Fatalf("wrong error: %v", err)
	}
}

func asNA(err error, out **NotApplicableError) bool {
	na, ok := err.(*NotApplicableError)
	if ok {
		*out = na
	}
	return ok
}

// TestReorderExample8 checks the exact structure of paper Example 8: the
// reader stub and the statement order after reordering.
func TestReorderExample8(t *testing.T) {
	p, loop := parseLoop(t, `
proc e8(start) {
  query q = "select count(x) from t where c = ?";
  sum = 0;
  category = start;
  while (category != null) {
    icount = execQuery(q, category);
    sum = sum + icount;
    category = getParentCategory(category);
  }
  return sum;
}`)
	gen := ir.NewNameGen(p)
	reg := ir.NewRegistry()
	body := loop.(*ir.While).Body
	sq := body.Stmts[0]
	if _, err := Reorder(loop, sq, reg, gen); err != nil {
		t.Fatal(err)
	}
	// Expected (paper Example 8): stub; category = getParent(category);
	// icount = q(stub); sum = sum + icount.
	got := printBlock(body)
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 statements after reorder, got:\n%s", got)
	}
	if !strings.Contains(lines[0], "= category;") {
		t.Errorf("line 1 should be the reader stub, got %q", lines[0])
	}
	if !strings.Contains(lines[1], "getParentCategory") {
		t.Errorf("line 2 should advance the category, got %q", lines[1])
	}
	if !strings.Contains(lines[2], "execQuery") {
		t.Errorf("line 3 should be the query, got %q", lines[2])
	}
	// No crossing LCFD must remain at the query.
	g := loopGraph(loop, reg)
	q := indexOf(body, sq)
	if edges := g.CrossingLCFD(q); len(edges) != 0 {
		t.Errorf("crossing LCFD edges remain: %v", edges)
	}
}

// TestReorderCycleFails: Theorem 4.1's negative case.
func TestReorderCycleFails(t *testing.T) {
	p, loop := parseLoop(t, `
proc cyc(v0) {
  query q = "select v from t where k = ?";
  v = v0;
  i = 0;
  while (i < 5) {
    v = execQuery(q, v);
    i = i + 1;
  }
  return v;
}`)
	gen := ir.NewNameGen(p)
	body := loop.(*ir.While).Body
	_, err := Reorder(loop, body.Stmts[0], ir.NewRegistry(), gen)
	var na *NotApplicableError
	if err == nil || !asNA(err, &na) || na.Reason != ReasonTrueDepCycle {
		t.Fatalf("want true-dependence-cycle failure, got %v", err)
	}
}

// TestFissionExample3Shape checks Rule A's output for the paper's running
// example: table + submit loop + ordered scan with conditional loads.
func TestFissionExample3Shape(t *testing.T) {
	p, loop := parseLoop(t, `
proc e2(categoryList) {
  query q0 = "select count(partkey) from part where p_category = ?";
  sum = 0;
  while (!empty(categoryList)) {
    category = removeFirst(categoryList);
    partCount = execQuery(q0, category);
    sum = sum + partCount;
  }
  return sum;
}`)
	gen := ir.NewNameGen(p)
	reg := ir.NewRegistry()
	body := loop.(*ir.While).Body
	sq := body.Stmts[1]
	loopIdx := 0
	for i, st := range p.Body.Stmts {
		if st == loop {
			loopIdx = i
		}
	}
	span, scanIdx, err := Fission(p.Body, loopIdx, sq, reg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if span != 3 {
		t.Fatalf("span = %d, want 3 (table, loop1, scan)", span)
	}
	scan, ok := p.Body.Stmts[scanIdx].(*ir.Scan)
	if !ok {
		t.Fatalf("no scan at %d:\n%s", scanIdx, ir.Print(p))
	}
	// Loop 1 must contain the submit, loop 2 the fetch then the consumer.
	loop1 := p.Body.Stmts[scanIdx-1].(*ir.While)
	hasSubmit := false
	for _, s := range loop1.Body.Stmts {
		if _, ok := s.(*ir.Submit); ok {
			hasSubmit = true
		}
		if _, ok := s.(*ir.Fetch); ok {
			t.Error("fetch leaked into the submit loop")
		}
	}
	if !hasSubmit {
		t.Errorf("no submit in loop 1:\n%s", ir.Print(p))
	}
	hasFetch := false
	for _, s := range scan.Body.Stmts {
		if _, ok := s.(*ir.Fetch); ok {
			hasFetch = true
		}
	}
	if !hasFetch {
		t.Errorf("no fetch in scan loop:\n%s", ir.Print(p))
	}
}

// TestFissionRefusesCrossing: fission without reordering must refuse a loop
// with a crossing carried flow dependence.
func TestFissionRefusesCrossing(t *testing.T) {
	p, loop := parseLoop(t, `
proc f(n) {
  query q = "select v from t where k = ?";
  c = 1;
  i = 0;
  while (i < n) {
    v = execQuery(q, c);
    c = c + v;
    i = i + 1;
  }
  return c;
}`)
	gen := ir.NewNameGen(p)
	body := loop.(*ir.While).Body
	loopIdx := 0
	for i, st := range p.Body.Stmts {
		if st == loop {
			loopIdx = i
		}
	}
	_, _, err := Fission(p.Body, loopIdx, body.Stmts[0], ir.NewRegistry(), gen)
	if err == nil {
		t.Fatal("fission must refuse crossing LCFD without reorder")
	}
}

// TestRegroup folds guarded runs back into ifs (§V).
func TestRegroup(t *testing.T) {
	p := minilang.MustParse(`
proc r(x) {
  c = x > 0;
  c ? a = 1;
  c ? b = 2;
  !c ? a = 3;
  d = 4;
  return a, b, d;
}`)
	Regroup(p.Body)
	kinds := []string{}
	for _, s := range p.Body.Stmts {
		switch s.(type) {
		case *ir.Assign:
			kinds = append(kinds, "assign")
		case *ir.If:
			kinds = append(kinds, "if")
		case *ir.Return:
			kinds = append(kinds, "return")
		}
	}
	want := "assign,if,if,assign,return"
	if strings.Join(kinds, ",") != want {
		t.Fatalf("got %v want %s:\n%s", kinds, want, printBlock(p.Body))
	}
	firstIf := p.Body.Stmts[1].(*ir.If)
	if len(firstIf.Then.Stmts) != 2 {
		t.Errorf("run of two same-guard statements must share one if")
	}
}

// TestRuleC2ReaderStubUnitsemantics: renaming reads through RenameReads.
func TestRenameReadsWrites(t *testing.T) {
	p := minilang.MustParse(`
proc rn(v) {
  w = v + v * 2;
  v = w;
  return v;
}`)
	s0 := p.Body.Stmts[0]
	ir.RenameReads(s0, "v", "v1")
	if got := ir.PrintStmt(s0); got != "w = v1 + v1 * 2;" {
		t.Errorf("RenameReads: %q", got)
	}
	s1 := p.Body.Stmts[1]
	ir.RenameWrites(s1, "v", "v2", ir.NewRegistry())
	if got := ir.PrintStmt(s1); got != "v2 = w;" {
		t.Errorf("RenameWrites: %q", got)
	}
}

// TestMutationWriterStub: moving a query past an in-place mutation uses the
// copy-in/copy-out form and preserves semantics (checked structurally here;
// the property tests check behaviour).
func TestMutationReorder(t *testing.T) {
	p, loop := parseLoop(t, `
proc m(stack) {
  query q = "select v from t where k = ?";
  total = 0;
  while (!empty(stack)) {
    cur = pop(stack);
    v = execQuery(q, cur);
    total = total + v;
    push(stack, cur / 2);
    x = peek(stack);
    c2 = x <= 1;
    c2 ? y = pop(stack);
  }
  return total;
}`)
	gen := ir.NewNameGen(p)
	reg := ir.NewRegistry()
	body := loop.(*ir.While).Body
	sq := body.Stmts[1]
	if _, err := Reorder(loop, sq, reg, gen); err != nil {
		t.Fatal(err)
	}
	g := loopGraph(loop, reg)
	if edges := g.CrossingLCFD(indexOf(body, sq)); len(edges) != 0 {
		t.Errorf("crossing LCFD remain after reorder: %v\n%s", edges, printBlock(body))
	}
}

// pickEdge orders edges by From, then To, then Loc, whatever order they
// come in: among edges from one statement the lowest To wins even when its
// Loc sorts last, and Loc breaks a tie on To.
func TestPickEdgeOrdersByFromToLoc(t *testing.T) {
	want := dataflow.Edge{From: 1, To: 2, Loc: "y"}
	edges := []dataflow.Edge{
		{From: 2, To: 0, Loc: "a"},
		{From: 1, To: 3, Loc: "a"},
		{From: 1, To: 2, Loc: "z"},
		want,
	}
	for range 2 {
		if got := pickEdge(slices.Clone(edges)); got != want {
			t.Errorf("pickEdge(%v) = %v, want %v", edges, got, want)
		}
		slices.Reverse(edges)
	}
}

// printBlock renders blk one statement per line, for the reorder assertions
// and failure messages.
func printBlock(blk *ir.Block) string {
	var b strings.Builder
	for _, s := range blk.Stmts {
		b.WriteString(ir.PrintStmt(s))
		b.WriteByte('\n')
	}
	return b.String()
}
