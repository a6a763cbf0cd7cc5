package rules

import (
	"fmt"
	"sort"

	"repro/internal/dataflow"
	"repro/internal/ir"
)

// Fission applies Rule A to the loop at parent.Stmts[loopIdx], cutting its
// body at pivot (see dataflow's cut). The loop is replaced by
//
//	table t;
//	<loop1>  — the original header, running the statements before the cut,
//	           capturing split variables and appending one record per
//	           iteration,
//	scan r in t { <loads>; <the statements from the cut on> }
//
// When pivot is a blocking query the cut goes through it (§III-B): loop1
// ends with its asynchronous submission and the scan begins with its fetch.
// Any other pivot moves to the scan whole (§III-D): cutting an outer loop at
// the scan a transformed inner loop left behind completes all inner
// submissions of all outer iterations before any result is consumed (paper
// Example 5).
//
// Preconditions are cutAt's and Rule A's (a) and (b)
// (dataflow.FissionBlockers); run Reorder first when loop-carried flow
// dependences cross the cut. Fission returns the number of statements now
// occupying the loop's slot in parent and the index (within parent) of the
// generated scan loop, so callers can continue transforming the consume side.
func Fission(parent *ir.Block, loopIdx int, pivot ir.Stmt, reg *ir.Registry, gen *ir.NameGen) (span, scanIdx int, err error) {
	loop := parent.Stmts[loopIdx]
	body, g, k, err := cutAt(loop, pivot, "Rule A", reg)
	if err != nil {
		return 0, 0, err
	}
	eq, through := pivot.(*ir.ExecQuery)
	if !through && k == 0 {
		return 0, 0, fmt.Errorf("rules: Fission: no statement precedes the cut")
	}
	if blockers := g.FissionBlockers(k); len(blockers) > 0 {
		return 0, 0, notApplicable("Rule A", blockReason(blockers),
			fmt.Sprintf("%d crossing dependences, e.g. %s", len(blockers), blockers[0]))
	}
	sv := g.SplitVars(k)

	// A query cut through becomes a submission and a fetch, with the handle
	// carried in the record under the query's guard. The second loop loads
	// the handle into a distinct variable so the two generated loops share no
	// handle state (this keeps a later cut of an enclosing loop free of
	// spurious carried dependences).
	var h1, h2 string
	if through {
		h1, h2 = gen.Fresh("h"), gen.Fresh("h")
	}
	tbl := gen.Fresh("t")
	rec := gen.Fresh("r")
	rec2 := gen.Fresh("r")
	svSet := map[string]bool{}
	for _, v := range sv {
		svSet[v] = true
	}

	// First loop body: record per iteration, the statements before the cut
	// with split-variable captures, submission, append.
	b1 := []ir.Stmt{&ir.NewRecord{Name: rec}}
	// Header-written split variables (foreach/scan element bindings) are
	// captured at the top of the body.
	for _, v := range headerWrites(loop) {
		if svSet[v] {
			b1 = append(b1, &ir.SetField{Record: rec, Field: v, Val: ir.V(v)})
		}
	}
	for _, s := range body.Stmts[:k] {
		b1 = append(b1, s)
		b1 = append(b1, captureWrites(s, rec, svSet, reg)...)
	}
	if through {
		submit := &ir.Submit{Lhs: h1, Query: eq.Query, Args: eq.Args, Kind: eq.Kind}
		submit.SetGuard(eq.Guard.Copy())
		keep := &ir.SetField{Record: rec, Field: h1, Val: ir.V(h1)}
		keep.SetGuard(eq.Guard.Copy())
		b1 = append(b1, submit, keep)
	}
	b1 = append(b1, &ir.AppendRecord{Table: tbl, Record: rec})

	loop1 := remakeLoop(loop, &ir.Block{Stmts: b1})

	// Base-case repair for the conditional restores: a split variable whose
	// captures are all guarded may have its record field unset in some
	// iteration, in which case the second loop must see the value the
	// variable had at that point of the ORIGINAL execution. The induction
	// works from iteration 1 on, but iteration 0 would observe loop 1's
	// final value instead of the pre-loop value. Snapshot such variables
	// before the first loop and restore them before the second. (Variables
	// with an unconditional capture always have the field set, so they need
	// no snapshot; programs are assumed to definitely assign variables
	// before the loop, as Java's definite-assignment rule guarantees in the
	// paper's setting.)
	// Only live-in variables can observe their pre-loop value in the
	// original program; transform-introduced temporaries (reader/writer
	// stubs) are written and read under the same guard within an iteration
	// and are never live-in, so snapshotting them (which would read an
	// unbound variable) is both unnecessary and avoided.
	liveIn := liveInVars(loop, body.Stmts, reg)
	var pre, mid []ir.Stmt
	for _, v := range sv {
		if !liveIn[v] || alwaysCaptured(v, loop, body.Stmts[:k], reg) {
			continue
		}
		pv := gen.Fresh(v)
		pre = append(pre, &ir.Assign{Lhs: []string{pv}, Rhs: ir.V(v)})
		mid = append(mid, &ir.Assign{Lhs: []string{v}, Rhs: ir.V(pv)})
	}

	// Second loop body: conditional restores, fetch, the statements from the
	// cut on.
	var b2 []ir.Stmt
	for _, v := range sv {
		b2 = append(b2, &ir.LoadField{Var: v, Record: rec2, Field: v})
	}
	rest := body.Stmts[k:]
	if through {
		fetch := &ir.Fetch{Lhs: eq.Lhs, Handle: ir.V(h2)}
		fetch.SetGuard(eq.Guard.Copy())
		b2 = append(b2, &ir.LoadField{Var: h2, Record: rec2, Field: h1}, fetch)
		rest = rest[1:]
	}
	b2 = append(b2, rest...)
	loop2 := &ir.Scan{Record: rec2, Table: tbl, Body: &ir.Block{Stmts: b2}}

	repl := []ir.Stmt{&ir.DeclTable{Name: tbl}}
	repl = append(repl, pre...)
	repl = append(repl, loop1)
	repl = append(repl, mid...)
	repl = append(repl, loop2)
	parent.Stmts = append(parent.Stmts[:loopIdx],
		append(repl, parent.Stmts[loopIdx+1:]...)...)
	return len(repl), loopIdx + len(repl) - 1, nil
}

// blockReason classifies a refused cut: a crossing carried flow dependence
// is a true-dependence cycle, anything else an external dependence.
func blockReason(blockers []dataflow.Edge) Reason {
	for _, e := range blockers {
		if e.Kind == dataflow.LCFD {
			return ReasonTrueDepCycle
		}
	}
	return ReasonExternal
}

// liveInVars computes the variables whose pre-loop value the loop body may
// observe in its first iteration, using a guard-aware definite-assignment
// pass: a read of v under guard g is covered if v was definitely assigned
// unconditionally earlier in the body, or assigned under the same guard
// (with no intervening redefinition of the guard variable).
func liveInVars(loop ir.Stmt, stmts []ir.Stmt, reg *ir.Registry) map[string]bool {
	assigned := map[string]bool{}
	for _, v := range headerWrites(loop) {
		assigned[v] = true
	}
	type gkey struct {
		v   string
		neg bool
	}
	underGuard := map[gkey]map[string]bool{}
	liveIn := map[string]bool{}

	for _, s := range stmts {
		sets := dataflow.StmtSets(s, reg)
		g := s.GetGuard()
		covered := func(v string) bool {
			if assigned[v] {
				return true
			}
			if g != nil && underGuard[gkey{g.Var, g.Neg}][v] {
				return true
			}
			return false
		}
		for v := range sets.Reads {
			if dataflow.IsExternal(v) {
				continue
			}
			if !covered(v) {
				liveIn[v] = true
			}
		}
		if g == nil {
			for v := range sets.Kills {
				assigned[v] = true
			}
		} else {
			k := gkey{g.Var, g.Neg}
			if underGuard[k] == nil {
				underGuard[k] = map[string]bool{}
			}
			for v := range sets.Writes {
				if !dataflow.IsExternal(v) {
					underGuard[k][v] = true
				}
			}
		}
		// A write to a variable used as a guard invalidates the facts
		// recorded under that guard.
		for v := range sets.Writes {
			delete(underGuard, gkey{v, false})
			delete(underGuard, gkey{v, true})
		}
	}
	return liveIn
}

// alwaysCaptured reports whether split variable v gets its record field set
// in every iteration: it is written by the loop header, or some unguarded
// first-loop statement writes it.
func alwaysCaptured(v string, loop ir.Stmt, p1 []ir.Stmt, reg *ir.Registry) bool {
	for _, h := range headerWrites(loop) {
		if h == v {
			return true
		}
	}
	for _, s := range p1 {
		if _, ok := s.(*ir.LoadField); ok {
			// A restore's capture is a conditional field copy; it does not
			// guarantee the field is set.
			continue
		}
		if s.GetGuard() == nil && !ir.IsCompound(s) && dataflow.StmtSets(s, reg).Writes[v] {
			return true
		}
	}
	return false
}

// captureWrites emits the "r.v = v" capture statements for every split
// variable the statement may write, guarded like the statement itself
// (Rule A's construction of ss1', §III-B point 2).
func captureWrites(s ir.Stmt, rec string, sv map[string]bool, reg *ir.Registry) []ir.Stmt {
	// A conditional restore produced by an earlier fission writes its
	// variable only when the source field was set; the capture must
	// preserve that conditionality, which a field-to-field copy does.
	if lf, ok := s.(*ir.LoadField); ok {
		if sv[lf.Var] {
			return []ir.Stmt{&ir.CopyField{
				DstRec: rec, DstField: lf.Var, SrcRec: lf.Record, SrcField: lf.Field,
			}}
		}
		return nil
	}
	sets := dataflow.StmtSets(s, reg)
	var vars []string
	for v := range sets.Writes {
		if sv[v] && !dataflow.IsExternal(v) {
			vars = append(vars, v)
		}
	}
	sort.Strings(vars)
	var out []ir.Stmt
	for _, v := range vars {
		sf := &ir.SetField{Record: rec, Field: v, Val: ir.V(v)}
		sf.SetGuard(s.GetGuard().Copy())
		out = append(out, sf)
	}
	return out
}

// headerWrites lists the variables written by the loop header each
// iteration.
func headerWrites(loop ir.Stmt) []string {
	switch l := loop.(type) {
	case *ir.ForEach:
		return []string{l.Var}
	case *ir.Scan:
		return []string{l.Record}
	}
	return nil
}

// remakeLoop rebuilds a loop of the same kind with a new body.
func remakeLoop(loop ir.Stmt, body *ir.Block) ir.Stmt {
	switch l := loop.(type) {
	case *ir.While:
		return &ir.While{Cond: l.Cond, Body: body}
	case *ir.ForEach:
		return &ir.ForEach{Var: l.Var, Coll: l.Coll, Body: body}
	case *ir.Scan:
		return &ir.Scan{Record: l.Record, Table: l.Table, Body: body}
	}
	panic(fmt.Sprintf("rules: remakeLoop: %T", loop))
}
