package rules

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minilang"
	"repro/internal/testsvc"
)

// sameRun runs both procedures on the blocking test service and fails the
// test unless they return the same values and print the same output.
func sameRun(t *testing.T, orig, got *ir.Proc, args ...interp.Value) {
	t.Helper()
	reg := ir.NewRegistry()
	r1, err := interp.New(reg, testsvc.NewSync()).Run(orig, args)
	if err != nil {
		t.Fatalf("original: %v", err)
	}
	r2, err := interp.New(reg, testsvc.NewSync()).Run(got, args)
	if err != nil {
		t.Fatalf("rewritten: %v\n%s", err, ir.Print(got))
	}
	for i := range r1.Returned {
		if !interp.Equal(r1.Returned[i], r2.Returned[i]) {
			t.Fatalf("return %d: %v vs %v\n%s", i, r1.Returned[i], r2.Returned[i], ir.Print(got))
		}
	}
	if r1.Output != r2.Output {
		t.Fatalf("output differs\n%s", ir.Print(got))
	}
}

// loopAt returns the first loop of p's body and its index there.
func loopAt(t *testing.T, p *ir.Proc) (ir.Stmt, int) {
	t.Helper()
	for i, s := range p.Body.Stmts {
		if ir.LoopBody(s) != nil {
			return s, i
		}
	}
	t.Fatal("no loop")
	return nil, 0
}

// example5Inner is paper Example 5 after its inner loop has been cut
// through the query: the outer loop is cut at the inner scan.
const example5Inner = `
proc e5(outer) {
  query q0 = "select x from items where a = ? and b = ?";
  total = 0;
  i = 0;
  while (i < outer) {
    j = 0;
    table t1;
    while (j < 3) {
      record r1;
      h1 = submit(q0, i, j);
      r1.h1 = h1;
      append(t1, r1);
      j = j + 1;
    }
    scan r2 in t1 {
      load h2 = r2.h1;
      x = fetch(h2);
      total = total + x;
    }
    i = i + 1;
  }
  return total;
}`

// TestCutAtInnerScan: the nested form of Rule A goes through the same
// Reorder and Fission as the query form. The trailing counter update is
// moved before the inner scan, the scan moves whole into the second loop,
// and the program still computes the same total.
func TestCutAtInnerScan(t *testing.T) {
	p := minilang.MustParse(example5Inner)
	orig := ir.CloneProc(p)
	reg, gen := ir.NewRegistry(), ir.NewNameGen(p)
	loop, idx := loopAt(t, p)
	scan := ir.LoopBody(loop).Stmts[3]
	if _, _, err := Fission(p.Body, idx, scan, reg, gen); err == nil {
		t.Fatal("the counter update after the scan crosses the cut; fission must refuse before reordering")
	}
	moved, err := Reorder(loop, scan, reg, gen)
	if err != nil || !moved {
		t.Fatalf("Reorder = %v, %v; want the counter update moved", moved, err)
	}
	span, scanIdx, err := Fission(p.Body, idx, scan, reg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if span != 3 {
		t.Fatalf("span = %d, want 3 (table, loop1, scan)\n%s", span, ir.Print(p))
	}
	first, second := ir.LoopBody(p.Body.Stmts[scanIdx-1]), ir.LoopBody(p.Body.Stmts[scanIdx])
	count := func(b *ir.Block) (submits, fetches int) {
		ir.WalkStmts(b, func(s ir.Stmt) {
			switch s.(type) {
			case *ir.Submit:
				submits++
			case *ir.Fetch:
				fetches++
			}
		})
		return
	}
	if s, f := count(first); s != 1 || f != 0 {
		t.Errorf("first loop: %d submits, %d fetches; want 1, 0\n%s", s, f, ir.Print(p))
	}
	if s, f := count(second); s != 0 || f != 1 {
		t.Errorf("second loop: %d submits, %d fetches; want 0, 1\n%s", s, f, ir.Print(p))
	}
	sameRun(t, orig, p, int64(4))
}

// TestCutBeforeFirstStatementRefused: a cut that goes before a statement
// needs a statement before it; only a query can be cut at index 0.
func TestCutBeforeFirstStatementRefused(t *testing.T) {
	p := minilang.MustParse(example5Inner)
	loop, idx := loopAt(t, p)
	if _, _, err := Fission(p.Body, idx, ir.LoopBody(loop).Stmts[0], ir.NewRegistry(), ir.NewNameGen(p)); err == nil {
		t.Fatal("fission at the first statement must refuse")
	}
}

// TestStubNeverOnCompoundStatement: moving "e = c + x" past the inner submit
// loop needs c renamed inside that loop, which a Rule C stub cannot reach.
// Reorder must refuse instead of renaming nothing and restoring c from a
// variable no statement writes.
func TestStubNeverOnCompoundStatement(t *testing.T) {
	p := minilang.MustParse(`
proc f(n, x) {
  query q0 = "select v from t where k = ?";
  c = 5;
  e = 0;
  total = 0;
  i = 0;
  while (i < n) {
    e = c + x;
    j = 0;
    table t1;
    while (j < 3) {
      record r1;
      c = j * 8;
      j = j + 1;
      h1 = submit(q0, j + i);
      r1.h1 = h1;
      append(t1, r1);
    }
    scan r2 in t1 {
      load h2 = r2.h1;
      v = fetch(h2);
      total = total + v;
    }
    c = 2;
    i = i + 1;
  }
  return total, c, e;
}`)
	orig := ir.CloneProc(p)
	loop, _ := loopAt(t, p)
	_, err := Reorder(loop, ir.LoopBody(loop).Stmts[4], ir.NewRegistry(), ir.NewNameGen(p))
	var na *NotApplicableError
	if !asNA(err, &na) || na.Reason != ReasonUnresolvable {
		t.Fatalf("want an unresolvable reordering, got %v\n%s", err, ir.Print(p))
	}
	// The moves made before the refusal are kept and must preserve meaning.
	sameRun(t, orig, p, int64(3), int64(7))
}
