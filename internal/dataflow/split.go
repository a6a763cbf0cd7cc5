package dataflow

import (
	"sort"

	"repro/internal/ir"
)

// Rule A cuts a loop body at statement k, the first statement of the second
// loop: statements before k run in the first (submit) loop, statements after
// it in the second (fetch/consume) loop. A blocking query at k is cut through
// (§III-B): its argument reads and submission stay in the first loop, its
// result write — the fetch — moves to the second. Any other statement at k
// moves to the second loop whole; that is the nested-loop form (§III-D),
// where k is the scan a transformed inner loop left behind. FissionBlockers,
// CrossingLCFD and SplitVars all take this k.

// cutsThrough reports whether the cut at k goes through statement k rather
// than before it.
func (g *Graph) cutsThrough(k int) bool {
	_, ok := g.Stmts[k].(*ir.ExecQuery)
	return ok
}

// FissionBlockers returns the loop-carried dependence edges that make the
// cut at k unsafe. These are the paper's Rule A preconditions, evaluated
// directionally:
//
//   - precondition (a): a loop-carried *flow* dependence whose source
//     executes in the second loop and whose target executes in the first
//     would be reversed by fission;
//   - precondition (b): likewise for loop-carried anti/output dependences on
//     *external* locations ($db, $io), which — unlike program variables —
//     cannot be renamed into record fields.
//
// A pure external self-dependence of the statement at k (e.g. repeated
// INSERTs from the same statement) does not block, matching the paper's
// Experiment 4; the updates of a single set-oriented loop are assumed
// commutative (§VII discusses transactional semantics as future work).
func (g *Graph) FissionBlockers(k int) []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if !e.Kind.IsCarried() {
			continue
		}
		external := IsExternal(e.Loc)
		if !external && e.Kind != LCFD {
			continue // renamed into record fields by Rule A
		}
		if external && e.From == k && e.To == k {
			continue // self-dependence exemption (Experiment 4)
		}
		if !g.inFirst(e.From, k, true, external) && g.inFirst(e.To, k, false, external) {
			out = append(out, e)
		}
	}
	return out
}

// inFirst reports whether an endpoint of a carried edge executes in the first
// loop of the cut at k. The header always does. A query cut through is in the
// first loop as a target — the edge reaches its argument reads, or its
// external action, which may start at the submission — and in the second as
// a source: its result write, or its action as late as the fetch. An
// already-asynchronous submission's external action can likewise execute as
// late as its fetch, so as an external source it is in the second loop
// wherever it stands.
func (g *Graph) inFirst(node, k int, isSource, external bool) bool {
	if node == Header {
		return true
	}
	if _, ok := g.Stmts[node].(*ir.Submit); ok && external && isSource {
		return false
	}
	return node < k || node == k && !isSource && g.cutsThrough(k)
}

// CrossingLCFD returns the loop-carried flow dependences that the statement
// reordering algorithm (§IV, Fig. 2) must eliminate before the cut at k: the
// LCFD edges from the second loop into the first.
func (g *Graph) CrossingLCFD(k int) []Edge {
	var out []Edge
	for _, e := range g.FissionBlockers(k) {
		if e.Kind == LCFD {
			out = append(out, e)
		}
	}
	return out
}

// SplitVars computes SV, the set of variables Rule A must carry from the
// first loop to the second through record fields for the cut at k: every
// program variable that may be written in the first loop (including by the
// loop header's element binding) and may be read or written in the second.
// The paper defines SV via LCAD/LCOD edges crossing the cut; the definitions
// coincide because any first-write/second-read pair induces a crossing
// loop-carried anti dependence, and this formulation is directly checkable.
// Second-loop writes count because a variable written on both sides carries
// a loop-carried output dependence across the cut (which Rule A explicitly
// permits): the conditional restore at the top of the second loop
// re-establishes each iteration's write order, so the variable's value after
// the split program — and at every second-loop read — matches the original
// interleaving. Of a query cut through, the second loop holds only the
// fetch: it writes the result and re-reads the query's guard.
func (g *Graph) SplitVars(k int) []string {
	first, second := map[string]bool{}, map[string]bool{}
	addVars(first, g.HeaderSets.Writes)
	for i, s := range g.Sets {
		switch {
		case i < k:
			addVars(first, s.Writes)
		case i == k && g.cutsThrough(k):
			if gd := g.Stmts[k].GetGuard(); gd != nil {
				second[gd.Var] = true
			}
			addVars(second, s.Writes)
		default:
			addVars(second, s.Reads)
			addVars(second, s.Writes)
		}
	}
	var out []string
	for v := range first {
		if second[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// addVars adds the program variables among locs (not the external
// pseudo-locations) to set.
func addVars(set, locs map[string]bool) {
	for v := range locs {
		if !IsExternal(v) {
			set[v] = true
		}
	}
}

// HasBarrier reports whether any statement in the graph is a reorder/split
// barrier (models the recursive invocation sites of §VI's Table I analysis).
func (g *Graph) HasBarrier() bool {
	for _, s := range g.Sets {
		if s.Barrier {
			return true
		}
	}
	return false
}
