package dataflow

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

// EdgeKind enumerates the dependence kinds of §III-A. Each group lists flow,
// anti and output in that order, which depEdges relies on.
type EdgeKind int

const (
	// FD is an intra-iteration flow dependence (write then read).
	FD EdgeKind = iota
	// AD is an intra-iteration anti dependence (read then write).
	AD
	// OD is an intra-iteration output dependence (write then write).
	OD
	// LCFD is a loop-carried flow dependence.
	LCFD
	// LCAD is a loop-carried anti dependence.
	LCAD
	// LCOD is a loop-carried output dependence.
	LCOD
)

func (k EdgeKind) String() string {
	switch k {
	case FD:
		return "FD"
	case AD:
		return "AD"
	case OD:
		return "OD"
	case LCFD:
		return "LCFD"
	case LCAD:
		return "LCAD"
	case LCOD:
		return "LCOD"
	}
	return "?"
}

// IsFlow reports whether the kind is a true dependence (FD or LCFD), the
// kinds that form the "true-dependence paths/cycles" of Definition 4.1.
func (k EdgeKind) IsFlow() bool { return k == FD || k == LCFD }

// IsCarried reports whether the kind is loop-carried.
func (k EdgeKind) IsCarried() bool { return k >= LCFD }

// Header is the node id of the loop header pseudo-node (the loop predicate
// for while loops, the element binding for foreach/scan loops). It is pinned:
// the reorder algorithm never moves it.
const Header = -1

// Edge is a dependence from one statement to another on a location.
type Edge struct {
	From int // statement index, or Header
	To   int
	Kind EdgeKind
	Loc  string
}

func (e Edge) String() string {
	return fmt.Sprintf("s%d -%s(%s)-> s%d", e.From, e.Kind, e.Loc, e.To)
}

// Graph is the DDG of one loop body, with the loop header as a pseudo-node.
type Graph struct {
	Stmts []ir.Stmt
	Sets  []*Sets // Sets[i] belongs to Stmts[i]
	// HeaderSets describes the loop header: condition reads for while,
	// element-variable write for foreach/scan.
	HeaderSets *Sets
	Edges      []Edge
}

// BuildLoop builds the DDG of a loop's body, including the header pseudo-node
// and loop-carried edges.
func BuildLoop(loop ir.Stmt, reg *ir.Registry) *Graph {
	h := newSets()
	switch l := loop.(type) {
	case *ir.While:
		collectExpr(l.Cond, reg, h, true)
	case *ir.ForEach:
		collectExpr(l.Coll, reg, h, true)
		h.kill(l.Var)
	case *ir.Scan:
		h.read(l.Table)
		h.kill(l.Record)
	default:
		panic(fmt.Sprintf("dataflow: BuildLoop on non-loop %T", loop))
	}
	stmts := ir.LoopBody(loop).Stmts
	// at[p] holds the Sets at body position p: the header at 0, statement i
	// at i+1. Position p is node id p-1, since Header is -1.
	at := make([]*Sets, len(stmts)+1)
	at[0] = h
	for i, s := range stmts {
		at[i+1] = StmtSets(s, reg)
	}
	g := &Graph{Stmts: stmts, Sets: at[1:], HeaderSets: h}

	// killPos maps each location to the sorted body positions that
	// definitely kill it, so each window check below is O(1) or O(log k).
	killPos := map[string][]int{}
	for p, st := range at {
		for loc := range st.Kills {
			killPos[loc] = append(killPos[loc], p)
		}
	}
	for pa, sa := range at {
		for pb, sb := range at {
			// Intra-iteration edges require forward control flow; a definite
			// kill strictly between the two positions cuts a flow.
			if pa < pb {
				g.Edges = depEdges(g.Edges, pa-1, pb-1, sa, sb, FD, func(loc string) bool {
					ks := killPos[loc]
					i := sort.SearchInts(ks, pa+1)
					return i < len(ks) && ks[i] < pb
				})
			}
			// Loop-carried edges: any pair (including self), value crossing
			// the back edge; a definite kill in the wrap-around window
			// (pa, n] ∪ [0, pb) cuts a flow. The header cannot be a
			// carried-edge source: its writes (the foreach element variable)
			// are re-killed at the top of every iteration before any body
			// statement runs.
			if pa > 0 {
				g.Edges = depEdges(g.Edges, pa-1, pb-1, sa, sb, LCFD, func(loc string) bool {
					ks := killPos[loc]
					return len(ks) > 0 && (ks[len(ks)-1] > pa || ks[0] < pb)
				})
			}
		}
	}
	return g
}

// depEdges appends the dependences from node a to node b, with a executing
// first: flow edges of kind flow (FD or LCFD) for each location a writes and
// b reads, unless killed (when not nil) reports a definite kill between
// them; then the anti and output edges of the kinds that follow flow in
// EdgeKind, for each location a reads or writes and b writes. Each location
// yields at most one edge of a kind, so no edge repeats.
func depEdges(out []Edge, a, b int, sa, sb *Sets, flow EdgeKind, killed func(loc string) bool) []Edge {
	for loc := range sa.Writes {
		if sb.Reads[loc] && (killed == nil || !killed(loc)) {
			out = append(out, Edge{From: a, To: b, Kind: flow, Loc: loc})
		}
	}
	for loc := range sa.Reads {
		if sb.Writes[loc] {
			out = append(out, Edge{From: a, To: b, Kind: flow + 1, Loc: loc})
		}
	}
	for loc := range sa.Writes {
		if sb.Writes[loc] {
			out = append(out, Edge{From: a, To: b, Kind: flow + 2, Loc: loc})
		}
	}
	return out
}

// PairEdges computes the intra-iteration dependences between two ADJACENT
// statements directly from their read/write sets (no kill analysis is needed
// because nothing executes between them). Edges use From=0 for a, To=1 for
// b. This is the cheap primitive the moveAfter procedure leans on.
func PairEdges(a, b ir.Stmt, reg *ir.Registry) []Edge {
	return depEdges(nil, 0, 1, StmtSets(a, reg), StmtSets(b, reg), FD, nil)
}

// TrueDepPath reports whether a path of one or more FD/LCFD edges leads from
// node a to node b (Definition 4.1). a == b asks for a cycle through a.
func (g *Graph) TrueDepPath(a, b int) bool {
	succ := map[int][]int{}
	for _, e := range g.Edges {
		if e.Kind.IsFlow() {
			succ[e.From] = append(succ[e.From], e.To)
		}
	}
	seen := map[int]bool{}
	work := append([]int(nil), succ[a]...)
	for len(work) > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		if x == b {
			return true
		}
		if !seen[x] {
			seen[x] = true
			work = append(work, succ[x]...)
		}
	}
	return false
}

// OnTrueDepCycle reports whether node id lies on a cycle of FD/LCFD edges —
// the condition of Theorem 4.1 under which the query statement cannot be
// made non-blocking.
func (g *Graph) OnTrueDepCycle(id int) bool {
	return g.TrueDepPath(id, id)
}
