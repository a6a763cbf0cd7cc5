package rules

import (
	"repro/internal/ir"
)

// Flatten applies Rule B (§III-C) to a loop body: every if statement is
// replaced by a guard-variable assignment followed by guarded statements, so
// that the body becomes a straight-line list of simple statements on which
// the reorder algorithm and Rule A can operate.
//
// Nested ifs compose guards through fresh boolean variables: for
//
//	if (p) { if (q) { s } }
//
// Flatten produces
//
//	c1 = p;
//	c2 = false;  c1 ? c2 = q;
//	c2 ? s;
//
// so every statement still carries a single-variable guard. Loops nested
// inside conditionals cannot be linearized; Flatten returns
// ReasonUnflattenable for those (the nested-loop rule of §III-D handles
// loops nested directly in the body).
func Flatten(body *ir.Block, gen *ir.NameGen) error {
	out, err := flattenStmts(body.Stmts, nil, gen, true)
	if err != nil {
		return err
	}
	body.Stmts = out
	return nil
}

// flattenStmts linearizes stmts under the given outer guard. topLevel allows
// loops to remain (they are handled by the nested-loop rule); under a guard
// they are an error.
func flattenStmts(stmts []ir.Stmt, outer *ir.Guard, gen *ir.NameGen, topLevel bool) ([]ir.Stmt, error) {
	var out []ir.Stmt
	for _, s := range stmts {
		switch x := s.(type) {
		case *ir.If:
			flat, err := flattenIf(x, outer, gen)
			if err != nil {
				return nil, err
			}
			out = append(out, flat...)
		case *ir.While, *ir.ForEach, *ir.Scan:
			if !topLevel || outer != nil {
				return nil, notApplicable("Rule B", ReasonUnflattenable,
					"loop nested inside a conditional")
			}
			out = append(out, s)
		default:
			g, pre, err := composeGuard(outer, s.GetGuard(), gen)
			if err != nil {
				return nil, err
			}
			out = append(out, pre...)
			s.SetGuard(g)
			out = append(out, s)
		}
	}
	return out, nil
}

// flattenIf converts one if statement into guarded statements per Rule B.
func flattenIf(x *ir.If, outer *ir.Guard, gen *ir.NameGen) ([]ir.Stmt, error) {
	var out []ir.Stmt
	cv := gen.Fresh("c")
	if outer == nil {
		// c = cond;
		out = append(out, &ir.Assign{Lhs: []string{cv}, Rhs: x.Cond})
	} else {
		// c = false;  outer ? c = cond;   (evaluate cond only under outer)
		out = append(out, &ir.Assign{Lhs: []string{cv}, Rhs: ir.BoolLit(false)})
		a := &ir.Assign{Lhs: []string{cv}, Rhs: x.Cond}
		a.SetGuard(outer.Copy())
		out = append(out, a)
	}
	thenGuard := &ir.Guard{Var: cv}
	thenStmts, err := flattenStmts(x.Then.Stmts, thenGuard, gen, false)
	if err != nil {
		return nil, err
	}
	out = append(out, thenStmts...)
	if x.Else != nil {
		// The else branch runs when outer holds and cv is false. With no
		// outer guard that is just !cv; otherwise materialize a fresh
		// variable: ce = false; outer ? ce = !cv.
		var elseGuard *ir.Guard
		if outer == nil {
			elseGuard = &ir.Guard{Var: cv, Neg: true}
		} else {
			ce := gen.Fresh("c")
			out = append(out, &ir.Assign{Lhs: []string{ce}, Rhs: ir.BoolLit(false)})
			a := &ir.Assign{Lhs: []string{ce}, Rhs: &ir.Un{Op: "!", X: ir.V(cv)}}
			a.SetGuard(outer.Copy())
			out = append(out, a)
			elseGuard = &ir.Guard{Var: ce}
		}
		elseStmts, err := flattenStmts(x.Else.Stmts, elseGuard, gen, false)
		if err != nil {
			return nil, err
		}
		out = append(out, elseStmts...)
	}
	return out, nil
}

// composeGuard combines an outer flattening guard with a statement's own
// guard. When both are present a fresh conjunction variable is materialized:
//
//	g2 = false;  outer ? g2 = own;
//
// returning g2 as the new guard plus the prelude statements.
func composeGuard(outer, own *ir.Guard, gen *ir.NameGen) (*ir.Guard, []ir.Stmt, error) {
	switch {
	case outer == nil:
		return own, nil, nil
	case own == nil:
		return outer.Copy(), nil, nil
	}
	g2 := gen.Fresh("c")
	pre := []ir.Stmt{
		&ir.Assign{Lhs: []string{g2}, Rhs: ir.BoolLit(false)},
	}
	var rhs ir.Expr = ir.V(own.Var)
	if own.Neg {
		rhs = &ir.Un{Op: "!", X: rhs}
	}
	a := &ir.Assign{Lhs: []string{g2}, Rhs: rhs}
	a.SetGuard(outer.Copy())
	pre = append(pre, a)
	return &ir.Guard{Var: g2}, pre, nil
}
