package core

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minilang"
	"repro/internal/testsvc"
)

// runBoth transforms src, runs the original against a blocking service and
// the transformed version against an async pool, and requires identical
// returns and output. It returns the transformed proc and report.
func runBoth(t *testing.T, src string, args ...interp.Value) (*ir.Proc, *Report) {
	t.Helper()
	return runWith(t, Options{}, src, args...)
}

// runWith is runBoth with explicit transformation options.
func runWith(t *testing.T, opts Options, src string, args ...interp.Value) (*ir.Proc, *Report) {
	t.Helper()
	orig := minilang.MustParse(src)
	tp, rep, err := Transform(orig, opts)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}

	reg := ir.NewRegistry()
	syncSvc := testsvc.NewSync()
	in1 := interp.New(reg, syncSvc)
	r1, err := in1.Run(orig, args)
	if err != nil {
		t.Fatalf("run original: %v\n%s", err, ir.Print(orig))
	}

	asyncSvc := testsvc.NewAsync(4)
	defer asyncSvc.Close()
	in2 := interp.New(reg, asyncSvc)
	r2, err := in2.Run(tp, args)
	if err != nil {
		t.Fatalf("run transformed: %v\n%s", err, ir.Print(tp))
	}

	if len(r1.Returned) != len(r2.Returned) {
		t.Fatalf("return arity differs: %v vs %v", r1.Returned, r2.Returned)
	}
	for i := range r1.Returned {
		if !interp.Equal(r1.Returned[i], r2.Returned[i]) {
			t.Fatalf("return %d differs: %v vs %v\ntransformed:\n%s",
				i, r1.Returned[i], r2.Returned[i], ir.Print(tp))
		}
	}
	if r1.Output != r2.Output {
		t.Fatalf("output differs:\n--- original ---\n%s--- transformed ---\n%s\ncode:\n%s",
			r1.Output, r2.Output, ir.Print(tp))
	}
	return tp, rep
}

// countAsync counts submit statements anywhere in the proc.
func countAsync(p *ir.Proc) (submits, fetches, execs int) {
	ir.WalkStmts(p.Body, func(s ir.Stmt) {
		switch s.(type) {
		case *ir.Submit:
			submits++
		case *ir.Fetch:
			fetches++
		case *ir.ExecQuery:
			execs++
		}
	})
	return
}

const example2 = `
proc example2(categoryList) {
  query q0 = "select count(partkey) from part where p_category = ?";
  sum = 0;
  while (!empty(categoryList)) {
    category = removeFirst(categoryList);
    partCount = execQuery(q0, category);
    sum = sum + partCount;
  }
  return sum;
}`

func TestExample2BasicFission(t *testing.T) {
	args := interp.NewList(int64(3), int64(9), int64(12), int64(40))
	tp, rep := runBoth(t, example2, args)

	if rep.Opportunities() != 1 || rep.TransformedCount() != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Sites[0].UsedReorder {
		t.Errorf("Example 2 should not need reordering")
	}
	sub, fet, ex := countAsync(tp)
	if sub != 1 || fet != 1 || ex != 0 {
		t.Errorf("got %d submits, %d fetches, %d blocking execs; want 1,1,0\n%s",
			sub, fet, ex, ir.Print(tp))
	}
	// Shape: the loop is replaced by table decl + submit loop + scan loop.
	kinds := topLevelKinds(tp)
	want := []string{"*ir.Assign", "*ir.DeclTable", "*ir.While", "*ir.Scan", "*ir.Return"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("top-level shape = %v, want %v\n%s", kinds, want, ir.Print(tp))
	}
}

func topLevelKinds(p *ir.Proc) []string {
	var out []string
	for _, s := range p.Body.Stmts {
		out = append(out, typeName(s))
	}
	return out
}

func typeName(s ir.Stmt) string {
	switch s.(type) {
	case *ir.Assign:
		return "*ir.Assign"
	case *ir.DeclTable:
		return "*ir.DeclTable"
	case *ir.While:
		return "*ir.While"
	case *ir.Scan:
		return "*ir.Scan"
	case *ir.Return:
		return "*ir.Return"
	case *ir.ForEach:
		return "*ir.ForEach"
	case *ir.If:
		return "*ir.If"
	}
	return "other"
}

// Example 4: query under a conditional; Rule B then Rule A.
const example4 = `
proc example4(n) {
  query q0 = "select v from t where k = 0";
  i = 0;
  while (i < n) {
    v = foo(i);
    if (v % 3 == 0) {
      v = execQuery(q0, i);
      log(v);
    }
    print(v);
    i = i + 1;
  }
  return i;
}`

func TestExample4ControlDeps(t *testing.T) {
	tp, rep := runBoth(t, example4, int64(12))
	if rep.TransformedCount() != 1 {
		t.Fatalf("not transformed: %+v", rep)
	}
	if !rep.Sites[0].UsedFlatten {
		t.Errorf("expected Rule B to be used")
	}
	sub, fet, ex := countAsync(tp)
	if sub != 1 || fet != 1 || ex != 0 {
		t.Errorf("got %d submits, %d fetches, %d execs\n%s", sub, fet, ex, ir.Print(tp))
	}
}

// A query under if … else whose else arm changes state: Rule B flattens both
// arms into guarded statements, and the else arm's effects must survive it.
const ifElseState = `
proc ifElseState(n) {
  query q0 = "select v from t where k = ?";
  i = 0;
  total = 0;
  misses = 0;
  while (i < n) {
    if (i % 3 == 0) {
      v = execQuery(q0, i);
      total = total + v;
    } else {
      misses = misses + 100;
      print(misses);
    }
    i = i + 1;
  }
  return total, misses;
}`

func TestIfElseArmSurvivesFlattening(t *testing.T) {
	tp, rep := runBoth(t, ifElseState, int64(12))
	if rep.TransformedCount() != 1 || !rep.Sites[0].UsedFlatten {
		t.Fatalf("want one site transformed through Rule B: %+v\n%s", rep, ir.Print(tp))
	}
	if sub, fet, _ := countAsync(tp); sub != 1 || fet != 1 {
		t.Fatalf("got %d submits, %d fetches\n%s", sub, fet, ir.Print(tp))
	}
}

// Example 6/7/8: loop-carried flow dependence requires reordering.
const example6 = `
proc example6(start) {
  query q0 = "select count(partkey) from part where p_category = ?";
  sum = 0;
  category = start;
  while (category != null) {
    partCount = execQuery(q0, category);
    sum = sum + partCount;
    category = getParentCategory(category);
  }
  return sum;
}`

func TestExample6Reordering(t *testing.T) {
	tp, rep := runBoth(t, example6, int64(100))
	if rep.TransformedCount() != 1 {
		t.Fatalf("not transformed: %+v", rep)
	}
	if !rep.Sites[0].UsedReorder {
		t.Errorf("expected statement reordering to be used")
	}
	sub, _, ex := countAsync(tp)
	if sub != 1 || ex != 0 {
		t.Errorf("query not made asynchronous:\n%s", ir.Print(tp))
	}
}

// Example 9: stack-driven traversal with an in-place mutating block call.
const example9 = `
proc example9(stack) {
  query q0 = "select count(*) from items where cat = ?";
  totalcount = 0;
  while (!empty(stack)) {
    curcat = pop(stack);
    catitems = execQuery(q0, curcat);
    totalcount = totalcount + catitems;
    push(stack, curcat / 2);
    c = peek(stack);
    c2 = c <= 1;
    c2 ? x = pop(stack);
  }
  return totalcount;
}`

func TestExample9StackTraversal(t *testing.T) {
	tp, rep := runBoth(t, example9, interp.NewList(int64(40), int64(9)))
	if rep.TransformedCount() != 1 {
		t.Fatalf("not transformed: %+v (reasons: %v)", rep, rep.Sites)
	}
	sub, _, ex := countAsync(tp)
	if sub != 1 || ex != 0 {
		t.Errorf("query not made asynchronous:\n%s", ir.Print(tp))
	}
}

// Example 10: guarded statements and multi-assignment.
const example10 = `
proc example10(n, x) {
  query q0 = "select v from t where b = ?";
  a = 0;
  b = 1;
  c = 2;
  d = 0;
  total = 0;
  i = 0;
  while (i < n) {
    cv1 = i % 2 == 0;
    cv2 = i % 3 == 0;
    cv3 = i % 5 != 0;
    cv1 ? a = execQuery(q0, b);
    cv2 ? a, c = divmod(x + i, 3);
    d = a * 10 + b;
    cv3 ? a, b = divmod(c * 3 + 1, 13);
    total = total + d;
    i = i + 1;
  }
  return total, a, b, c, d;
}`

func TestExample10GuardedReorder(t *testing.T) {
	tp, rep := runBoth(t, example10, int64(30), int64(11))
	if rep.TransformedCount() != 1 {
		t.Fatalf("not transformed: %+v", rep)
	}
	sub, _, ex := countAsync(tp)
	if sub != 1 || ex != 0 {
		t.Errorf("query not made asynchronous:\n%s", ir.Print(tp))
	}
}

// Example 11: the first query is on a true-dependence cycle (its argument
// comes from its own previous result); the second is transformable.
const example11 = `
proc example11(eid0) {
  query q1 = "select manager from emp where empid = ?";
  query q2 = "select perfindex from rating where reviewer = ? and reviewed = ?";
  sumidx = 0;
  eid = eid0;
  i = 0;
  while (eid != null && i < 8) {
    mgr = execQuery(q1, eid);
    idx = execQuery(q2, mgr, eid);
    sumidx = sumidx + idx;
    eid = getParentCategory(mgr);
    i = i + 1;
  }
  return sumidx;
}`

func TestExample11CyclicDependence(t *testing.T) {
	tp, rep := runBoth(t, example11, int64(64))
	if rep.Opportunities() != 1 {
		t.Fatalf("want 1 site, got %+v", rep)
	}
	site := rep.Sites[0]
	if site.Converted != 1 {
		t.Fatalf("want exactly 1 of 2 queries converted, got %d (%v)\n%s",
			site.Converted, site.Reasons, ir.Print(tp))
	}
	foundCycleReason := false
	for _, r := range site.Reasons {
		if strings.Contains(r, "true-dependence cycle") {
			foundCycleReason = true
		}
	}
	if !foundCycleReason {
		t.Errorf("expected a true-dependence-cycle reason, got %v", site.Reasons)
	}
	sub, _, ex := countAsync(tp)
	if sub != 1 || ex != 1 {
		t.Errorf("want 1 async + 1 blocking query, got %d/%d\n%s", sub, ex, ir.Print(tp))
	}
}

// Example 5: nested loops; both levels are split and the inner table nests
// in the outer record.
const example5 = `
proc example5(outer) {
  query q0 = "select x from items where a = ? and b = ?";
  total = 0;
  i = 0;
  while (i < outer) {
    j = 0;
    while (j < 3) {
      x = execQuery(q0, i, j);
      total = total + x;
      j = j + 1;
    }
    i = i + 1;
  }
  return total;
}`

func TestExample5NestedLoops(t *testing.T) {
	tp, rep := runBoth(t, example5, int64(5))
	if rep.TransformedCount() != 1 {
		t.Fatalf("not transformed: %+v", rep)
	}
	sub, _, ex := countAsync(tp)
	if sub != 1 || ex != 0 {
		t.Errorf("query not made asynchronous:\n%s", ir.Print(tp))
	}
	// The outer loop must also have been split: the top level should contain
	// two loops for the outer level (submit phase and scan phase).
	var scans int
	for _, s := range tp.Body.Stmts {
		if _, ok := s.(*ir.Scan); ok {
			scans++
		}
	}
	if scans == 0 {
		t.Errorf("outer loop not split:\n%s", ir.Print(tp))
	}
}

// Multiple independent queries in one loop: both become asynchronous via
// repeated application of Rule A.
const twoQueries = `
proc twoQueries(items) {
  query qa = "select x from a where k = ?";
  query qb = "select y from b where k = ?";
  total = 0;
  foreach it in items {
    x = execQuery(qa, it);
    y = execQuery(qb, it);
    total = total + x + y;
  }
  return total;
}`

func TestTwoQueriesBothAsync(t *testing.T) {
	tp, rep := runBoth(t, twoQueries, interp.NewList(int64(1), int64(2), int64(3)))
	if rep.TransformedCount() != 1 {
		t.Fatalf("not transformed: %+v", rep)
	}
	sub, fet, ex := countAsync(tp)
	if sub != 2 || fet != 2 || ex != 0 {
		t.Errorf("want both queries async, got %d submits %d fetches %d execs\n%s",
			sub, fet, ex, ir.Print(tp))
	}
}

// OnlyQueries (the paper's §VII option to transform only the named
// statements) converts the named query and leaves the other blocking, and the
// partly transformed program still computes what the original does.
func TestOnlyQueriesConvertsTheNamedQuery(t *testing.T) {
	tp, rep := runWith(t, Options{OnlyQueries: []string{"qb"}}, twoQueries,
		interp.NewList(int64(1), int64(2), int64(3)))
	if rep.Opportunities() != 1 || rep.Sites[0].Converted != 1 {
		t.Fatalf("want one site with one conversion, got %+v", rep.Sites)
	}
	var submitted, blocking []string
	ir.WalkStmts(tp.Body, func(s ir.Stmt) {
		switch s := s.(type) {
		case *ir.Submit:
			submitted = append(submitted, s.Query)
		case *ir.ExecQuery:
			blocking = append(blocking, s.Query)
		}
	})
	if strings.Join(submitted, ",") != "qb" || strings.Join(blocking, ",") != "qa" {
		t.Fatalf("submitted %v, blocking %v; want [qb], [qa]\n%s", submitted, blocking, ir.Print(tp))
	}
}

// An update-only loop (paper Experiment 4): self output dependence on the
// database does not block fission.
const insertLoop = `
proc insertLoop(n) {
  query ins = "insert into forms values (?, ?)";
  i = 0;
  while (i < n) {
    execUpdate(ins, i, i * 2);
    i = i + 1;
  }
  return i;
}`

func TestInsertLoopAsync(t *testing.T) {
	tp, rep := runBoth(t, insertLoop, int64(10))
	if rep.TransformedCount() != 1 {
		t.Fatalf("insert loop not transformed: %+v", rep.Sites)
	}
	sub, fet, ex := countAsync(tp)
	if sub != 1 || fet != 1 || ex != 0 {
		t.Errorf("want async insert, got %d/%d/%d\n%s", sub, fet, ex, ir.Print(tp))
	}
}

// A read query followed by an update to the database in the same loop: the
// external flow dependence (update writes $db, query reads it next
// iteration) must block the transformation of the read.
const readWriteLoop = `
proc readWriteLoop(n) {
  query sel = "select v from t where k = ?";
  query ins = "insert into t values (?)";
  total = 0;
  i = 0;
  while (i < n) {
    v = execQuery(sel, i);
    total = total + v;
    execUpdate(ins, v);
    i = i + 1;
  }
  return total;
}`

func TestReadAfterWriteBlocks(t *testing.T) {
	orig := minilang.MustParse(readWriteLoop)
	tp, rep, err := Transform(orig, DefaultOptions())
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if rep.TransformedCount() != 0 {
		t.Fatalf("read-write loop must not be transformed:\n%s", ir.Print(tp))
	}
}

// Barrier (recursive) invocation: counted as an opportunity, never
// transformed — the bulletin-board cases of Table I.
const recursiveLoop = `
proc recursiveLoop(items) {
  total = 0;
  foreach it in items {
    x = recurse(it);
    total = total + x;
  }
  return total;
}`

func TestBarrierLoopNotTransformed(t *testing.T) {
	orig := minilang.MustParse(recursiveLoop)
	_, rep, err := Transform(orig, DefaultOptions())
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if rep.Opportunities() != 1 || rep.TransformedCount() != 0 {
		t.Fatalf("want 1 untransformed opportunity, got %+v", rep)
	}
	if !strings.Contains(strings.Join(rep.Sites[0].Reasons, " "), "barrier") {
		t.Errorf("want barrier reason, got %v", rep.Sites[0].Reasons)
	}
}

// The readable output mode regroups guards into ifs and still runs
// correctly.
func TestReadableOutputEquivalent(t *testing.T) {
	orig := minilang.MustParse(example4)
	tp, _, err := Transform(orig, Options{Readable: true})
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	hasIf := false
	ir.WalkStmts(tp.Body, func(s ir.Stmt) {
		if _, ok := s.(*ir.If); ok {
			hasIf = true
		}
	})
	if !hasIf {
		t.Errorf("readable mode should regroup guards into ifs:\n%s", ir.Print(tp))
	}

	reg := ir.NewRegistry()
	in1 := interp.New(reg, testsvc.NewSync())
	r1, err := in1.Run(orig, []interp.Value{int64(12)})
	if err != nil {
		t.Fatalf("run original: %v", err)
	}
	svc := testsvc.NewAsync(3)
	defer svc.Close()
	in2 := interp.New(reg, svc)
	r2, err := in2.Run(tp, []interp.Value{int64(12)})
	if err != nil {
		t.Fatalf("run readable transformed: %v\n%s", err, ir.Print(tp))
	}
	if r1.Output != r2.Output || !interp.Equal(r1.Returned[0], r2.Returned[0]) {
		t.Errorf("readable output differs")
	}
}

// Transformed print-bearing loops preserve output order even though queries
// complete out of order: verify with a slow, reordering runner.
func TestOutputOrderPreservedUnderConcurrency(t *testing.T) {
	src := `
proc p(n) {
  query q0 = "select v from t where k = ?";
  i = 0;
  while (i < n) {
    v = execQuery(q0, i);
    print(i, v);
    i = i + 1;
  }
  return n;
}`
	orig := minilang.MustParse(src)
	tp, rep, err := Transform(orig, Options{})
	if err != nil || rep.TransformedCount() != 1 {
		t.Fatalf("transform failed: %v %+v", err, rep)
	}
	reg := ir.NewRegistry()
	svc := exec.NewService(8, testsvc.Runner())
	defer svc.Close()
	in := interp.New(reg, svc)
	r, err := in.Run(tp, []interp.Value{int64(50)})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	in2 := interp.New(reg, testsvc.NewSync())
	r2, err := in2.Run(orig, []interp.Value{int64(50)})
	if err != nil {
		t.Fatalf("run original: %v", err)
	}
	if r.Output != r2.Output {
		t.Errorf("output order not preserved under concurrency")
	}
}
