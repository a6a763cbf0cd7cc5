// Package dataflow computes statement-level read/write sets and builds the
// Data Dependence Graph (DDG) of §III-A of the paper for a loop body, with
// the loop header as a pseudo-node: flow (FD), anti (AD) and output (OD)
// dependences, their loop-carried counterparts (LCFD/LCAD/LCOD), and
// external dependences through the database and the output stream, modelled
// conservatively as the pseudo-locations LocDB and LocIO.
package dataflow

import (
	"repro/internal/ir"
)

// Pseudo-locations for external state (§III-A "External data dependencies":
// "we could model the entire database (or file system) as a single program
// variable").
const (
	// LocDB is the database pseudo-location: read by SELECT queries,
	// written by updates.
	LocDB = "$db"
	// LocIO is the output pseudo-location: written by print/log, so that
	// output ordering is an explicit dependence.
	LocIO = "$io"
)

// IsExternal reports whether loc is a pseudo-location rather than a program
// variable.
func IsExternal(loc string) bool {
	return loc == LocDB || loc == LocIO
}

// Sets holds the may-read and may-write locations of a statement, the
// definite kills (unconditional whole-variable writes), and whether the
// statement is a reorder barrier.
type Sets struct {
	Reads   map[string]bool
	Writes  map[string]bool
	Kills   map[string]bool
	Barrier bool
}

func newSets() *Sets {
	return &Sets{Reads: map[string]bool{}, Writes: map[string]bool{}, Kills: map[string]bool{}}
}

func (s *Sets) read(locs ...string)  { add(s.Reads, locs...) }
func (s *Sets) write(locs ...string) { add(s.Writes, locs...) }
func (s *Sets) kill(locs ...string)  { add(s.Kills, locs...); add(s.Writes, locs...) }

func add(m map[string]bool, locs ...string) {
	for _, l := range locs {
		if l != "" {
			m[l] = true
		}
	}
}

// StmtSets computes the dataflow sets of a single statement. Compound
// statements get the union of their nested statements' sets (as may-effects,
// with no kills), which is what the applicability analysis needs; the
// transformation rules themselves only operate on flattened bodies.
func StmtSets(s ir.Stmt, reg *ir.Registry) *Sets {
	out := newSets()
	collectStmt(s, reg, out, false)
	return out
}

// collectStmt accumulates s's effects into out. If mayOnly is set, writes are
// never recorded as kills (used for nested blocks and guarded statements).
func collectStmt(s ir.Stmt, reg *ir.Registry, out *Sets, mayOnly bool) {
	guardedStmt := mayOnly
	if g := s.GetGuard(); g != nil {
		out.read(g.Var)
		guardedStmt = true
	}
	writeVar := func(v string) {
		if guardedStmt {
			out.write(v)
		} else {
			out.kill(v)
		}
	}
	switch x := s.(type) {
	case *ir.Assign:
		collectExpr(x.Rhs, reg, out, guardedStmt)
		for _, l := range x.Lhs {
			writeVar(l)
		}
	case *ir.ExecQuery:
		for _, a := range x.Args {
			collectExpr(a, reg, out, guardedStmt)
		}
		if x.Kind == ir.QueryUpdate {
			out.write(LocDB)
		} else {
			out.read(LocDB)
		}
		if x.Lhs != "" {
			writeVar(x.Lhs)
		}
	case *ir.Submit:
		for _, a := range x.Args {
			collectExpr(a, reg, out, guardedStmt)
		}
		if x.Kind == ir.QueryUpdate {
			out.write(LocDB)
		} else {
			out.read(LocDB)
		}
		writeVar(x.Lhs)
	case *ir.Fetch:
		collectExpr(x.Handle, reg, out, guardedStmt)
		if x.Lhs != "" {
			writeVar(x.Lhs)
		}
	case *ir.CallStmt:
		collectExpr(x.Call, reg, out, guardedStmt)
	case *ir.Return:
		for _, v := range x.Vals {
			collectExpr(v, reg, out, guardedStmt)
		}
	case *ir.DeclTable:
		writeVar(x.Name)
	case *ir.NewRecord:
		writeVar(x.Name)
	case *ir.SetField:
		collectExpr(x.Val, reg, out, guardedStmt)
		out.read(x.Record)
		out.write(x.Record) // partial update: may-write, never a kill
	case *ir.AppendRecord:
		out.read(x.Record, x.Table)
		out.write(x.Table)
	case *ir.LoadField:
		out.read(x.Record)
		out.write(x.Var) // conditional restore: may-write, never a kill
	case *ir.CopyField:
		out.read(x.SrcRec, x.DstRec)
		out.write(x.DstRec) // partial, conditional: may-write
	case *ir.While:
		collectExpr(x.Cond, reg, out, true)
		collectBlock(x.Body, reg, out)
	case *ir.If:
		collectExpr(x.Cond, reg, out, true)
		collectBlock(x.Then, reg, out)
		collectBlock(x.Else, reg, out)
	case *ir.ForEach:
		collectExpr(x.Coll, reg, out, true)
		out.write(x.Var)
		collectBlock(x.Body, reg, out)
	case *ir.Scan:
		out.read(x.Table)
		out.write(x.Record)
		collectBlock(x.Body, reg, out)
	}
}

func collectBlock(b *ir.Block, reg *ir.Registry, out *Sets) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		collectStmt(s, reg, out, true)
	}
}

// collectExpr records the reads (and, for calls, mutations and external
// effects) of an expression. mayOnly propagates guardedness: a mutation under
// a guard is a may-write.
func collectExpr(e ir.Expr, reg *ir.Registry, out *Sets, mayOnly bool) {
	switch x := e.(type) {
	case nil:
	case *ir.Var:
		out.read(x.Name)
	case *ir.Lit:
	case *ir.Bin:
		collectExpr(x.L, reg, out, mayOnly)
		collectExpr(x.R, reg, out, mayOnly)
	case *ir.Un:
		collectExpr(x.X, reg, out, mayOnly)
	case *ir.Call:
		sig := reg.Lookup(x.Fn)
		for i, a := range x.Args {
			collectExpr(a, reg, out, mayOnly)
			if sig != nil && sig.Mutates(i) {
				if v, ok := a.(*ir.Var); ok {
					// In-place mutation: may-write, never a kill.
					out.write(v.Name)
				}
			}
		}
		if sig != nil {
			if sig.External&ir.ExtReadsDB != 0 {
				out.read(LocDB)
			}
			if sig.External&ir.ExtWritesDB != 0 {
				out.write(LocDB)
			}
			if sig.External&ir.ExtIO != 0 {
				out.write(LocIO)
			}
			if sig.Barrier {
				out.Barrier = true
			}
		}
	}
}

// MutatesInPlace reports whether the statement mutates any variable in place
// (through a mutating call argument or a record/table update). Such
// statements cannot have their writes renamed by a writer stub (Rule C3), so
// the reorder algorithm must move them wholesale or fail.
func MutatesInPlace(s ir.Stmt, reg *ir.Registry) bool {
	found := false
	ir.WalkExprs(s, func(e ir.Expr) {
		if c, ok := e.(*ir.Call); ok {
			if sig := reg.Lookup(c.Fn); sig != nil && len(sig.MutatesArgs) > 0 {
				found = true
			}
		}
	})
	switch s.(type) {
	case *ir.SetField, *ir.AppendRecord, *ir.CopyField:
		return true
	}
	return found
}
