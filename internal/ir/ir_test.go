package ir

import (
	"strings"
	"testing"
)

func sampleProc() *Proc {
	g := &Guard{Var: "c"}
	eq := &ExecQuery{Lhs: "v", Query: "q0", Args: []Expr{V("x")}}
	eq.SetGuard(g)
	return &Proc{
		Name:    "p",
		Params:  []string{"x", "xs"},
		Queries: []QueryDecl{{Name: "q0", SQL: "select v from t where k = ?"}},
		Body: &Block{Stmts: []Stmt{
			&Assign{Lhs: []string{"c"}, Rhs: &Bin{Op: ">", L: V("x"), R: IntLit(0)}},
			eq,
			&While{Cond: &Un{Op: "!", X: &Call{Fn: "empty", Args: []Expr{V("xs")}}},
				Body: &Block{Stmts: []Stmt{
					&Assign{Lhs: []string{"y"}, Rhs: &Call{Fn: "removeFirst", Args: []Expr{V("xs")}}},
				}}},
			&Return{Vals: []Expr{V("v")}},
		}},
	}
}

func TestCloneIndependence(t *testing.T) {
	p := sampleProc()
	q := CloneProc(p)
	if !EqualProc(p, q) {
		t.Fatal("clone not equal")
	}
	// Mutating the clone must not affect the original.
	q.Body.Stmts[0].(*Assign).Lhs[0] = "zz"
	q.Body.Stmts[1].SetGuard(nil)
	if EqualProc(p, q) {
		t.Fatal("clone shares state with original")
	}
	if p.Body.Stmts[0].(*Assign).Lhs[0] != "c" || p.Body.Stmts[1].GetGuard() == nil {
		t.Fatal("original mutated through clone")
	}
}

func TestEqualStmtDiscriminates(t *testing.T) {
	a := &Assign{Lhs: []string{"x"}, Rhs: IntLit(1)}
	b := &Assign{Lhs: []string{"x"}, Rhs: IntLit(2)}
	if EqualStmt(a, b) {
		t.Fatal("different rhs must differ")
	}
	c := &Assign{Lhs: []string{"x"}, Rhs: IntLit(1)}
	c.SetGuard(&Guard{Var: "g"})
	if EqualStmt(a, c) {
		t.Fatal("guard must participate in equality")
	}
}

func TestNameGenAvoidsCollisions(t *testing.T) {
	p := sampleProc()
	gen := NewNameGen(p)
	seen := map[string]bool{"x": true, "xs": true, "c": true, "v": true, "y": true, "q0": true}
	for i := 0; i < 50; i++ {
		n := gen.Fresh("v")
		if seen[n] {
			t.Fatalf("collision: %s", n)
		}
		seen[n] = true
	}
	// Numeric suffixes strip so v1's fresh name does not become v11.
	if n := gen.Fresh("v1"); !strings.HasPrefix(n, "v") {
		t.Fatalf("fresh from v1: %s", n)
	}
}

func TestGuardString(t *testing.T) {
	if (&Guard{Var: "c"}).String() != "c" || (&Guard{Var: "c", Neg: true}).String() != "!c" {
		t.Fatal("guard rendering")
	}
	var g *Guard
	if g.String() != "" || !g.Equal(nil) || g.Equal(&Guard{Var: "c"}) {
		t.Fatal("nil guard handling")
	}
}

func TestPrintStmtForms(t *testing.T) {
	cases := []struct {
		s    Stmt
		want string
	}{
		{&DeclTable{Name: "t0"}, "table t0;"},
		{&NewRecord{Name: "r0"}, "record r0;"},
		{&SetField{Record: "r0", Field: "v", Val: V("v")}, "r0.v = v;"},
		{&AppendRecord{Table: "t0", Record: "r0"}, "append(t0, r0);"},
		{&LoadField{Var: "v", Record: "r0", Field: "v"}, "load v = r0.v;"},
		{&CopyField{DstRec: "a", DstField: "f", SrcRec: "b", SrcField: "g"}, "copy a.f = b.g;"},
		{&Submit{Lhs: "h", Query: "q0", Args: []Expr{V("x")}}, "h = submit(q0, x);"},
		{&Fetch{Lhs: "v", Handle: V("h")}, "v = fetch(h);"},
		{&ExecQuery{Query: "q0", Args: []Expr{V("x")}, Kind: QueryUpdate}, "execUpdate(q0, x);"},
	}
	for _, c := range cases {
		if got := PrintStmt(c.s); got != c.want {
			t.Errorf("got %q want %q", got, c.want)
		}
	}
}

func TestWalkStmtsDepth(t *testing.T) {
	p := sampleProc()
	n := 0
	WalkStmts(p.Body, func(Stmt) { n++ })
	if n != 5 { // 4 top-level + 1 nested
		t.Fatalf("walked %d statements, want 5", n)
	}
}

func TestRegistryLookup(t *testing.T) {
	r := NewRegistry()
	if r.Lookup("removeFirst") == nil || !r.Lookup("removeFirst").Mutates(0) {
		t.Fatal("removeFirst must mutate arg 0")
	}
	if r.Lookup("print").External&ExtIO == 0 {
		t.Fatal("print must write $io")
	}
	if !r.Lookup("recurse").Barrier {
		t.Fatal("recurse must be a barrier")
	}
	if r.Lookup("nosuch") != nil {
		t.Fatal("unknown lookup must be nil")
	}
}

// Operands lists a statement's own expressions in source order, and a write
// through one of them replaces that expression in the statement.
func TestOperandsAreTheStatementsFields(t *testing.T) {
	r := &Return{Vals: []Expr{V("a"), V("b")}}
	ops := Operands(r)
	if len(ops) != 2 || (*ops[0]).(*Var).Name != "a" || (*ops[1]).(*Var).Name != "b" {
		t.Fatalf("Operands(return a, b) = %v", ops)
	}
	*ops[1] = V("c")
	if r.Vals[1].(*Var).Name != "c" {
		t.Fatal("a write through an operand did not reach the statement")
	}
	w := &While{Cond: V("go"), Body: &Block{Stmts: []Stmt{&Return{Vals: []Expr{V("inner")}}}}}
	if ops := Operands(w); len(ops) != 1 || *ops[0] != w.Cond {
		t.Fatalf("Operands(while) = %v, want only the condition", ops)
	}
	if ops := Operands(&DeclTable{}); ops != nil {
		t.Fatalf("Operands(table decl) = %v, want none", ops)
	}
}
