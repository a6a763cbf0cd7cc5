package rules

import (
	"fmt"
	"sort"

	"repro/internal/dataflow"
	"repro/internal/ir"
)

// CtrlLoc is the pseudo-location used for the flow dependences induced by the
// loop predicate's control dependence on every body statement. The paper
// (§IV-A) requires these to be taken into account when checking for
// true-dependence cycles: a query whose execution in one iteration is
// controlled by a predicate that reads its previous result is inherently
// sequential.
const CtrlLoc = "$ctrl"

// loopGraph builds the DDG of a loop body and augments it with the
// control-dependence flow edges from the header to every body statement.
func loopGraph(loop ir.Stmt, reg *ir.Registry) *dataflow.Graph {
	g := dataflow.BuildLoop(loop, reg)
	for i := range g.Stmts {
		g.Edges = append(g.Edges, dataflow.Edge{
			From: dataflow.Header, To: i, Kind: dataflow.FD, Loc: CtrlLoc,
		})
	}
	return g
}

// cutAt checks what every cut of loop at pivot needs (see Fission) and
// returns the loop's body, its dependence graph and pivot's index. A loop
// with a barrier is never cut. Cutting through a query also needs the query
// off every true-dependence cycle (Theorem 4.1: its execution would depend
// on its own result from an earlier iteration) and a flat body (Rule B
// applied first).
func cutAt(loop, pivot ir.Stmt, rule string, reg *ir.Registry) (*ir.Block, *dataflow.Graph, int, error) {
	body := ir.LoopBody(loop)
	if body == nil {
		return nil, nil, 0, fmt.Errorf("rules: %s: not a loop: %T", rule, loop)
	}
	k := indexOf(body, pivot)
	if k < 0 {
		return nil, nil, 0, fmt.Errorf("rules: %s: cut statement not in loop body", rule)
	}
	g := loopGraph(loop, reg)
	if _, through := pivot.(*ir.ExecQuery); through {
		if g.OnTrueDepCycle(k) {
			return nil, nil, 0, notApplicable(rule, ReasonTrueDepCycle, "")
		}
		for _, s := range body.Stmts {
			if ir.IsCompound(s) {
				return nil, nil, 0, notApplicable(rule, ReasonUnflattenable, "body not flat")
			}
		}
	}
	if g.HasBarrier() {
		return nil, nil, 0, notApplicable(rule, ReasonBarrier, "")
	}
	return body, g, k, nil
}

// Reorder implements procedure reorder of the paper's Figure 2: it reorders
// the statements of loop's body so that no loop-carried flow dependence
// crosses the cut at pivot, enabling Rule A (Fission), and reports whether
// any statement had to move. Besides cutAt's preconditions it fails with
// ReasonUnresolvable when an adjacent-statement dependence cannot be shifted
// by the Rule C stubs.
//
// The body is mutated in place; pivot is tracked by identity as it moves. A
// failed reordering keeps the moves it made (each preserves semantics).
func Reorder(loop, pivot ir.Stmt, reg *ir.Registry, gen *ir.NameGen) (bool, error) {
	body, g, _, err := cutAt(loop, pivot, "reorder", reg)
	if err != nil {
		return false, err
	}
	n := len(body.Stmts) + 2
	maxIter := 8*n + 32
	// budget bounds the total work (adjacent swaps, stub insertions and
	// srcDeps steps) across the whole reordering, and maxStmts bounds body
	// growth from Rule C stubs, so pathological dependence shapes fail
	// cleanly with ReasonUnresolvable instead of thrashing.
	// Failing is safe: the site is simply reported untransformable. Real
	// programs (all of §VI's applications and every paper example) stay far
	// below these caps.
	budget := 12*n + 64
	maxStmts := 2*n + 12
	for iter := 0; ; iter++ {
		if iter > maxIter || len(body.Stmts) > maxStmts {
			return false, notApplicable("reorder", ReasonUnresolvable, "did not converge")
		}
		q := indexOf(body, pivot)
		edges := g.CrossingLCFD(q)
		if len(edges) == 0 {
			return iter > 0, nil
		}
		e := pickEdge(edges)
		// Figure 2's case analysis. e = (v1, v2) with v1 in the second loop
		// and v2 in the first. Note v2 may be the loop header (the
		// predicate), which can never move; in that case the true-dependence
		// path v1 -> header -> (ctrl) -> pivot always exists and we move the
		// pivot instead.
		v1, v2 := e.From, e.To
		var stmtToMove, target ir.Stmt
		if v1 != q && g.TrueDepPath(v1, q) {
			if g.TrueDepPath(q, v1) {
				// Both directions: the pivot is entangled in a cycle with
				// v1; no reordering can separate them.
				return false, notApplicable("reorder", ReasonTrueDepCycle, "")
			}
			stmtToMove, target = pivot, body.Stmts[v1]
		} else {
			if v2 == dataflow.Header {
				return false, notApplicable("reorder", ReasonUnresolvable,
					"carried dependence into the loop predicate with no path to the pivot")
			}
			stmtToMove, target = body.Stmts[v2], pivot
		}
		if err := movePastWithDeps(body, stmtToMove, target, pivot, reg, gen, &budget); err != nil {
			return false, err
		}
		g = loopGraph(loop, reg)
	}
}

// pickEdge selects a deterministic edge from the crossing set so transforms
// are reproducible.
func pickEdge(edges []dataflow.Edge) dataflow.Edge {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].To != edges[j].To {
			return edges[i].To < edges[j].To
		}
		return edges[i].Loc < edges[j].Loc
	})
	return edges[0]
}

// movePastWithDeps implements the srcDeps loop of Figure 2: before moving
// stmtToMove past target, every statement between them that has a
// flow-dependence path from stmtToMove is moved past the target first
// (closest to the target first).
func movePastWithDeps(body *ir.Block, stmtToMove, target, pivot ir.Stmt, reg *ir.Registry, gen *ir.NameGen, budget *int) error {
	for {
		*budget = *budget - 1
		if *budget < 0 {
			return notApplicable("reorder", ReasonUnresolvable, "reordering budget exhausted")
		}
		si := indexOf(body, stmtToMove)
		ti := indexOf(body, target)
		if si < 0 || ti < 0 {
			return fmt.Errorf("rules: movePastWithDeps: statement vanished")
		}
		if si > ti {
			return nil // already past
		}
		dep := closestSrcDep(body.Stmts, reg, si, ti)
		if dep < 0 {
			break
		}
		if err := moveAfter(body, body.Stmts[dep], target, pivot, reg, gen, budget); err != nil {
			return err
		}
	}
	return moveAfter(body, stmtToMove, target, pivot, reg, gen, budget)
}

// closestSrcDep finds the statement between si and ti (exclusive) nearest to
// ti that has an intra-iteration flow-dependence path from si. Flow edges go
// forward, and a definite kill strictly between writer and reader cuts one,
// so one pass suffices: live holds the locations a statement on a path wrote
// that nothing since has killed, and a statement is on a path when it reads
// one of them.
func closestSrcDep(stmts []ir.Stmt, reg *ir.Registry, si, ti int) int {
	live := dataflow.StmtSets(stmts[si], reg).Writes
	dep := -1
	for j := si + 1; j < ti; j++ {
		sj := dataflow.StmtSets(stmts[j], reg)
		onPath := false
		for loc := range sj.Reads {
			onPath = onPath || live[loc]
		}
		for loc := range sj.Kills {
			delete(live, loc)
		}
		if onPath {
			dep = j
			for loc := range sj.Writes {
				live[loc] = true
			}
		}
	}
	return dep
}

// moveAfter implements procedure moveAfter of Figure 4: move statement s to
// the position immediately after t by repeated adjacent swaps, shifting anti
// and output dependences out of the way with Rule C2/C3 stub statements.
func moveAfter(body *ir.Block, s, t, pivot ir.Stmt, reg *ir.Registry, gen *ir.NameGen, budget *int) error {
	for {
		si := indexOf(body, s)
		ti := indexOf(body, t)
		if si < 0 || ti < 0 {
			return fmt.Errorf("rules: moveAfter: statement vanished")
		}
		if si > ti {
			return nil
		}
		*budget = *budget - 1
		if *budget < 0 {
			return notApplicable("moveAfter", ReasonUnresolvable, "reordering budget exhausted")
		}
		next := body.Stmts[si+1]
		if err := resolveAdjacent(body, s, next, pivot, t, reg, gen, budget); err != nil {
			return err
		}
		// Indices may have shifted while inserting stubs; refresh and swap.
		si = indexOf(body, s)
		ni := si + 1
		body.Stmts[si], body.Stmts[ni] = body.Stmts[ni], body.Stmts[si]
		if body.Stmts[si] == t { // s has just moved past t
			return nil
		}
	}
}

// resolveAdjacent removes all intra-iteration dependences between adjacent
// statements s and next so they can be swapped (Rule C1). Anti dependences
// are shifted with reader or writer stubs (Rule C2), output dependences with
// writer stubs (Rule C3). Flow dependences and dependences on external
// locations cannot be shifted and yield ReasonUnresolvable.
func resolveAdjacent(body *ir.Block, s, next, pivot, t ir.Stmt, reg *ir.Registry, gen *ir.NameGen, budget *int) error {
	for round := 0; ; round++ {
		if round > 8 {
			return notApplicable("moveAfter", ReasonUnresolvable, "stub cascade did not converge")
		}
		edges := dataflow.PairEdges(s, next, reg)
		if len(edges) == 0 {
			return nil
		}
		// Flow or external dependences between neighbours are fatal.
		for _, e := range edges {
			if e.Kind == dataflow.FD {
				return notApplicable("moveAfter", ReasonUnresolvable,
					fmt.Sprintf("flow dependence on %s between adjacent statements", e.Loc))
			}
			if dataflow.IsExternal(e.Loc) {
				return notApplicable("moveAfter", ReasonExternal,
					fmt.Sprintf("external dependence on %s", e.Loc))
			}
		}
		progressed := false
		// Rule C3: shift output dependences first (this may also clear an
		// anti dependence on the same variable).
		for _, e := range edges {
			if e.Kind != dataflow.OD {
				continue
			}
			if err := writerStub(body, next, t, pivot, e.Loc, reg, gen, budget); err != nil {
				return err
			}
			progressed = true
			break
		}
		if progressed {
			continue
		}
		// Rule C2: shift anti dependences. Per Figure 4: when the pivot also
		// reads the variable that next writes, renaming next's write would
		// leave the pivot's read pointing at the renamed variable's stale
		// original, so a reader stub on s is used instead; otherwise next's
		// write is shifted. A reader stub requires that s reads v without
		// also writing it (a write by s would have produced an OD edge,
		// already shifted above).
		for _, e := range edges {
			if e.Kind != dataflow.AD {
				continue
			}
			// "AD edge from the pivot to next" holds when the pivot precedes
			// next and reads the variable next writes.
			pi := indexOf(body, pivot)
			ni := indexOf(body, next)
			pivotReads := pi >= 0 && pi < ni && readsVar(pivot, e.Loc, reg)
			var err error
			if pivotReads && readsVar(s, e.Loc, reg) && !writesVar(s, e.Loc, reg) {
				err = readerStub(body, s, e.Loc, gen)
			} else {
				err = writerStub(body, next, t, pivot, e.Loc, reg, gen, budget)
			}
			if err != nil {
				return err
			}
			progressed = true
			break
		}
		if !progressed {
			return notApplicable("moveAfter", ReasonUnresolvable, "unknown adjacent dependence")
		}
	}
}

// Stubs rename what a simple statement reads or writes. The body of a
// compound statement — an inner loop that a nested cut moves — is out of
// their reach, so a dependence there that needs a stub is unshiftable.

// readerStub applies Rule C2's reader form: insert "v1 = v" immediately
// before s and rename s's reads of v to v1.
func readerStub(body *ir.Block, s ir.Stmt, v string, gen *ir.NameGen) error {
	if ir.IsCompound(s) {
		return notApplicable("moveAfter", ReasonUnresolvable, "would need to rename reads inside a compound statement")
	}
	v1 := gen.Fresh(v)
	stub := &ir.Assign{Lhs: []string{v1}, Rhs: ir.V(v)}
	insertBefore(body, s, stub)
	ir.RenameReads(s, v, v1)
	return nil
}

// writerStub applies Rule C3 (and C2's writer form): rename next's write of v
// to a fresh v1 and insert "v = v1" immediately after next, then move the
// stub past t so the restored value lands after the reordering window. When
// next mutates v in place, a copy-in "v1 = v" is inserted before next so the
// mutation applies to the copy (the mini-language has value semantics for
// collections). The restoring stub inherits next's guard so a skipped guarded
// write stays skipped.
func writerStub(body *ir.Block, next, t, pivot ir.Stmt, v string, reg *ir.Registry, gen *ir.NameGen, budget *int) error {
	if next == pivot {
		return notApplicable("moveAfter", ReasonUnresolvable,
			"would need to rename the query statement's write")
	}
	if ir.IsCompound(next) {
		return notApplicable("moveAfter", ReasonUnresolvable, "would need to rename writes inside a compound statement")
	}
	v1 := gen.Fresh(v)
	if dataflow.MutatesInPlace(next, reg) && readsVar(next, v, reg) && writesVar(next, v, reg) {
		copyIn := &ir.Assign{Lhs: []string{v1}, Rhs: ir.V(v)}
		copyIn.SetGuard(next.GetGuard().Copy())
		insertBefore(body, next, copyIn)
		ir.RenameReads(next, v, v1)
	}
	ir.RenameWrites(next, v, v1, reg)
	stub := &ir.Assign{Lhs: []string{v}, Rhs: ir.V(v1)}
	stub.SetGuard(next.GetGuard().Copy())
	insertAfter(body, next, stub)
	return moveAfter(body, stub, t, pivot, reg, gen, budget)
}

func readsVar(s ir.Stmt, v string, reg *ir.Registry) bool {
	return dataflow.StmtSets(s, reg).Reads[v]
}

func writesVar(s ir.Stmt, v string, reg *ir.Registry) bool {
	return dataflow.StmtSets(s, reg).Writes[v]
}

func indexOf(body *ir.Block, s ir.Stmt) int {
	for i, x := range body.Stmts {
		if x == s {
			return i
		}
	}
	return -1
}

func insertBefore(body *ir.Block, anchor ir.Stmt, s ir.Stmt) {
	i := indexOf(body, anchor)
	body.Stmts = append(body.Stmts, nil)
	copy(body.Stmts[i+1:], body.Stmts[i:])
	body.Stmts[i] = s
}

func insertAfter(body *ir.Block, anchor ir.Stmt, s ir.Stmt) {
	i := indexOf(body, anchor)
	body.Stmts = append(body.Stmts, nil)
	copy(body.Stmts[i+2:], body.Stmts[i+1:])
	body.Stmts[i+1] = s
}
