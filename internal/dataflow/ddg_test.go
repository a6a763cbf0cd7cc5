package dataflow

import (
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/minilang"
)

func loopOf(t *testing.T, src string) (ir.Stmt, *ir.Registry) {
	t.Helper()
	p := minilang.MustParse(src)
	for _, s := range p.Body.Stmts {
		if ir.IsCompound(s) {
			return s, ir.NewRegistry()
		}
	}
	t.Fatal("no loop in source")
	return nil, nil
}

func hasEdge(g *Graph, from, to int, kind EdgeKind, loc string) bool {
	for _, e := range g.Edges {
		if e.From == from && e.To == to && e.Kind == kind && e.Loc == loc {
			return true
		}
	}
	return false
}

// TestFigure1Edges reproduces the paper's Figure 1: the DDG of Example 2.
// Statements: 0: category = removeFirst(categoryList); 1: partCount =
// execQuery(q0, category); 2: sum = sum + partCount.
func TestFigure1Edges(t *testing.T) {
	loop, reg := loopOf(t, `
proc example2(categoryList) {
  query q0 = "select count(partkey) from part where p_category = ?";
  sum = 0;
  while (!empty(categoryList)) {
    category = removeFirst(categoryList);
    partCount = execQuery(q0, category);
    sum = sum + partCount;
  }
  return sum;
}`)
	g := BuildLoop(loop, reg)

	// Flow dependences within the iteration.
	if !hasEdge(g, 0, 1, FD, "category") {
		t.Error("missing FD category: removeFirst -> execQuery (paper: s2 -FD-> s3/s4)")
	}
	if !hasEdge(g, 1, 2, FD, "partCount") {
		t.Error("missing FD partCount: execQuery -> sum (paper: s4 -FD-> s5)")
	}
	// The loop-carried flow dependence through the mutated list reaches the
	// predicate and the next iteration's removeFirst (paper: s2 -LFD-> s1).
	if !hasEdge(g, 0, Header, LCFD, "categoryList") {
		t.Error("missing LCFD categoryList into the loop predicate")
	}
	if !hasEdge(g, 0, 0, LCFD, "categoryList") {
		t.Error("missing LCFD categoryList self edge")
	}
	// Kill analysis: category is rewritten unconditionally every iteration,
	// so there is NO loop-carried flow dependence on it (Figure 1 shows
	// none).
	if hasEdge(g, 0, 1, LCFD, "category") {
		t.Error("spurious LCFD on category despite the unconditional rewrite")
	}
	// sum accumulates across iterations.
	if !hasEdge(g, 2, 2, LCFD, "sum") {
		t.Error("missing LCFD sum self edge")
	}
}

// TestKillWindow: a guarded write does not kill, an unguarded one does.
func TestKillWindow(t *testing.T) {
	loop, reg := loopOf(t, `
proc k(n) {
  v = 0;
  i = 0;
  while (i < n) {
    g = i % 2 == 0;
    g ? v = i;
    print(v);
    i = i + 1;
  }
  return v;
}`)
	g := BuildLoop(loop, reg)
	// v written under guard at 1, read at 2: guarded write cannot kill, so
	// the carried edge 1 -> 2 survives (the value may flow to a later
	// iteration's print when the guard is false in between).
	if !hasEdge(g, 1, 2, LCFD, "v") {
		t.Error("guarded write must not kill: LCFD v expected")
	}
}

func TestKillWindowUnconditional(t *testing.T) {
	loop, reg := loopOf(t, `
proc k2(n) {
  v = 0;
  i = 0;
  while (i < n) {
    v = i * 2;
    print(v);
    i = i + 1;
  }
  return v;
}`)
	g := BuildLoop(loop, reg)
	if hasEdge(g, 0, 1, LCFD, "v") {
		t.Error("unconditional write each iteration kills the carried flow")
	}
}

// TestExternalEdges: updates write $db, selects read it.
func TestExternalEdges(t *testing.T) {
	loop, reg := loopOf(t, `
proc rw(n) {
  query sel = "select v from t where k = ?";
  query ins = "insert into t values (?)";
  i = 0;
  while (i < n) {
    v = execQuery(sel, i);
    execUpdate(ins, v);
    i = i + 1;
  }
  return i;
}`)
	g := BuildLoop(loop, reg)
	if !hasEdge(g, 1, 0, LCFD, LocDB) {
		t.Error("missing carried external flow: insert -> next select")
	}
	if !hasEdge(g, 0, 1, AD, LocDB) {
		t.Error("missing external anti dependence select -> insert")
	}
}

// TestIOOutputDependence: two prints must be ordered through $io.
func TestIOOutputDependence(t *testing.T) {
	loop, reg := loopOf(t, `
proc io(n) {
  i = 0;
  while (i < n) {
    print(i);
    log(i);
    i = i + 1;
  }
  return i;
}`)
	g := BuildLoop(loop, reg)
	if !hasEdge(g, 0, 1, OD, LocIO) {
		t.Error("missing $io output dependence print -> log")
	}
}

// TestTrueDepCycle: Example 11's first query is on a cycle, the second not.
func TestTrueDepCycle(t *testing.T) {
	loop, reg := loopOf(t, `
proc e11(eid0) {
  query q1 = "select m from emp where e = ?";
  query q2 = "select p from rating where r = ? and d = ?";
  sumidx = 0;
  eid = eid0;
  while (eid != null) {
    mgr = execQuery(q1, eid);
    idx = execQuery(q2, mgr, eid);
    sumidx = sumidx + idx;
    eid = getParentCategory(mgr);
  }
  return sumidx;
}`)
	g := BuildLoop(loop, reg)
	if !g.OnTrueDepCycle(0) {
		t.Error("q1 must be on a true-dependence cycle (mgr -> eid -> q1)")
	}
	if g.OnTrueDepCycle(1) {
		t.Error("q2 must not be on a true-dependence cycle")
	}
}

// TestFissionBlockersDirection checks the directional P2->P1 rule.
func TestFissionBlockersDirection(t *testing.T) {
	loop, reg := loopOf(t, `
proc f(n) {
  query q = "select v from t where k = ?";
  c = 100;
  i = 0;
  while (i < n) {
    v = execQuery(q, c);
    c = c + v;
    i = i + 1;
  }
  return c;
}`)
	g := BuildLoop(loop, reg)
	// c = c + v (index 1) writes c; the query (index 0) reads c next
	// iteration: LCFD 1 -> 0 crossing the split at q=0.
	blockers := g.FissionBlockers(0)
	found := false
	for _, e := range blockers {
		if e.Kind == LCFD && e.Loc == "c" && e.From == 1 && e.To == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected LCFD c 1->0 in blockers, got %v", blockers)
	}
}

// TestSelfInsertNotBlocking: Experiment 4's self output dependence.
func TestSelfInsertNotBlocking(t *testing.T) {
	loop, reg := loopOf(t, `
proc ins(n) {
  query q = "insert into t values (?)";
  i = 0;
  while (i < n) {
    execUpdate(q, i);
    i = i + 1;
  }
  return i;
}`)
	g := BuildLoop(loop, reg)
	for _, e := range g.FissionBlockers(0) {
		if e.From == 0 && e.To == 0 && IsExternal(e.Loc) {
			t.Errorf("self external dependence must be exempt: %v", e)
		}
	}
}

// TestSplitVars: variables written before and read after the query.
func TestSplitVars(t *testing.T) {
	loop, reg := loopOf(t, `
proc sv(xs) {
  query q = "select v from t where k = ?";
  total = 0;
  foreach x in xs {
    y = x * 2;
    z = 1;
    v = execQuery(q, y);
    total = total + v + y + x;
  }
  return total;
}`)
	g := BuildLoop(loop, reg)
	got := g.SplitVars(2)
	want := []string{"x", "y"} // x: header write read after; y written read after; z never read after
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("SplitVars = %v, want %v", got, want)
	}
}

// TestStmtSets sanity-checks read/write/kill classification.
func TestStmtSets(t *testing.T) {
	p := minilang.MustParse(`
proc s(l) {
  query q = "select v from t where k = ?";
  a = removeFirst(l);
  g = a > 0;
  g ? b = execQuery(q, a);
  print(b);
  return b;
}`)
	reg := ir.NewRegistry()
	s0 := StmtSets(p.Body.Stmts[0], reg)
	if !s0.Reads["l"] || !s0.Writes["l"] || s0.Kills["l"] {
		t.Errorf("removeFirst: reads/writes l without killing; got %+v", s0)
	}
	if !s0.Kills["a"] {
		t.Errorf("a = ... must kill a")
	}
	s2 := StmtSets(p.Body.Stmts[2], reg)
	if !s2.Reads["g"] || !s2.Reads["a"] || !s2.Reads[LocDB] {
		t.Errorf("guarded query reads guard, args and $db: %+v", s2)
	}
	if s2.Kills["b"] {
		t.Errorf("guarded write must not kill")
	}
	s3 := StmtSets(p.Body.Stmts[3], reg)
	if !s3.Writes[LocIO] {
		t.Errorf("print writes $io")
	}
}

// TestDot smoke-tests the graphviz export.
func TestDot(t *testing.T) {
	loop, reg := loopOf(t, `
proc d(n) {
  query q = "select v from t where k = ?";
  i = 0;
  while (i < n) {
    v = execQuery(q, i);
    i = i + 1;
  }
  return i;
}`)
	g := BuildLoop(loop, reg)
	dot := g.Dot("d")
	for _, want := range []string{"digraph", "s0", "s1", "->"} {
		if !contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestNoExternalKill: a definite kill names a program variable, never $db or
// $io. Kills come only from a statement's own identifiers (assignment
// targets, table and record names) and a foreach/scan header variable, and
// the lexer admits no '$', so the DDG's kill windows need no external-location
// exemption. Every statement kind is built, each simple one also guarded, and
// each loop header.
func TestNoExternalKill(t *testing.T) {
	if _, err := minilang.Parse(`proc p() { $db = 1; return 1; }`); err == nil {
		t.Fatal("the lexer admitted '$' in an identifier")
	}
	p := minilang.MustParse(`
proc all(l, n) {
  query q = "select v from t where k = ?";
  query u = "insert into t values (?)";
  g = n > 0;
  table t;
  g ? table t2;
  record r;
  !g ? record r2;
  a = removeFirst(l);
  g ? a2 = removeFirst(l);
  v = execQuery(q, a);
  g ? v2 = execQuery(q, a);
  execUpdate(u, a);
  !g ? execUpdate(u, a);
  h = submit(q, a);
  g ? h2 = submit(q, a);
  hu = submitUpdate(u, a);
  g ? hu2 = submitUpdate(u, a);
  w = fetch(h);
  g ? w2 = fetch(h2);
  fetch(hu);
  g ? fetch(hu2);
  print(v);
  g ? print(v2);
  r.f = v;
  g ? r.f2 = v;
  append(t, r);
  g ? append(t2, r);
  load x = r.f;
  g ? load x2 = r.f;
  copy r2.f = r.f;
  g ? copy r2.f2 = r.f;
  while (n > 0) {
    n = n - 1;
    execUpdate(u, n);
  }
  if (g) {
    print(a);
  } else {
    execUpdate(u, a);
  }
  foreach e in l {
    print(e);
  }
  scan s in t {
    print(s);
  }
  return v;
}`)
	reg := ir.NewRegistry()
	noExternal := func(what string, s *Sets) {
		for loc := range s.Kills {
			if IsExternal(loc) {
				t.Errorf("%s kills %s", what, loc)
			}
		}
	}
	kinds := map[string]bool{}
	externalWrites := map[string]bool{}
	ir.WalkStmts(p.Body, func(s ir.Stmt) {
		kind := fmt.Sprintf("%T", s)
		if s.GetGuard() != nil {
			kind += " guarded"
		}
		kinds[kind] = true
		sets := StmtSets(s, reg)
		noExternal(kind, sets)
		for loc := range sets.Writes {
			if IsExternal(loc) {
				externalWrites[loc] = true
			}
		}
		if ir.LoopBody(s) != nil {
			noExternal(kind+" header", BuildLoop(s, reg).HeaderSets)
		}
	})
	if !externalWrites[LocDB] || !externalWrites[LocIO] {
		t.Errorf("no statement writes both external locations: %v", externalWrites)
	}
	for _, k := range []string{"Assign", "ExecQuery", "Submit", "Fetch", "CallStmt",
		"DeclTable", "NewRecord", "SetField", "AppendRecord", "LoadField", "CopyField"} {
		for _, kind := range []string{"*ir." + k, "*ir." + k + " guarded"} {
			if !kinds[kind] {
				t.Errorf("no %s statement built", kind)
			}
		}
	}
	for _, kind := range []string{"*ir.Return", "*ir.While", "*ir.If", "*ir.ForEach", "*ir.Scan"} {
		if !kinds[kind] {
			t.Errorf("no %s statement built", kind)
		}
	}
}
