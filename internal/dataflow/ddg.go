package dataflow

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

// EdgeKind enumerates the dependence kinds of §III-A.
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

// Graph is the DDG of one loop body (or straight-line block).
type Graph struct {
	Stmts []ir.Stmt
	Sets  []*Sets // Sets[i] belongs to Stmts[i]
	// HeaderSets describes the loop header: condition reads for while,
	// element-variable write for foreach/scan. Nil for plain blocks.
	HeaderSets *Sets
	Edges      []Edge
	Reg        *ir.Registry
}

// BuildLoop builds the DDG of a loop's body, including the header pseudo-node
// and loop-carried edges.
func BuildLoop(loop ir.Stmt, reg *ir.Registry) *Graph {
	switch l := loop.(type) {
	case *ir.While:
		h := newSets()
		collectExpr(l.Cond, reg, h, true)
		return build(l.Body.Stmts, h, reg)
	case *ir.ForEach:
		h := newSets()
		collectExpr(l.Coll, reg, h, true)
		h.kill(l.Var)
		return build(l.Body.Stmts, h, reg)
	case *ir.Scan:
		h := newSets()
		h.read(l.Table)
		h.kill(l.Record)
		return build(l.Body.Stmts, h, reg)
	}
	panic(fmt.Sprintf("dataflow: BuildLoop on non-loop %T", loop))
}

// BuildBlock builds the DDG of a straight-line statement list with no
// header and no loop-carried edges (used for whole-procedure-body analysis).
func BuildBlock(stmts []ir.Stmt, reg *ir.Registry) *Graph {
	g := build(stmts, nil, reg)
	return g
}

func build(stmts []ir.Stmt, header *Sets, reg *ir.Registry) *Graph {
	g := &Graph{Stmts: stmts, HeaderSets: header, Reg: reg}
	g.Sets = make([]*Sets, len(stmts))
	for i, s := range stmts {
		g.Sets[i] = StmtSets(s, reg)
	}
	n := len(stmts)

	// pos maps node id to loop-body position: header at 0, stmt i at i+1.
	// node retrieves the Sets for a node id.
	nodeSets := func(id int) *Sets {
		if id == Header {
			return header
		}
		return g.Sets[id]
	}
	ids := make([]int, 0, n+1)
	if header != nil {
		ids = append(ids, Header)
	}
	for i := range stmts {
		ids = append(ids, i)
	}
	pos := func(id int) int {
		if id == Header {
			return 0
		}
		return id + 1
	}

	// killPos maps each location to the sorted body positions that
	// definitely kill it (header at position 0, statement i at i+1), so the
	// window checks below are O(1)/O(log k) instead of O(n).
	killPos := map[string][]int{}
	if header != nil {
		for loc := range header.Kills {
			killPos[loc] = append(killPos[loc], 0)
		}
	}
	for i, st := range g.Sets {
		for loc := range st.Kills {
			killPos[loc] = append(killPos[loc], i+1)
		}
	}
	// killedIn reports whether loc is definitely killed at any body position
	// in the half-open circular window (fromPos, n] ∪ [0, toPos).
	killedIn := func(loc string, fromPos, toPos int) bool {
		ks := killPos[loc]
		if len(ks) == 0 {
			return false
		}
		if ks[len(ks)-1] > fromPos { // a kill after fromPos up to n
			return true
		}
		return ks[0] < toPos // a kill before toPos from the loop top
	}
	// killedBetween reports a definite kill strictly between two positions.
	killedBetween := func(loc string, fromPos, toPos int) bool {
		ks := killPos[loc]
		if len(ks) == 0 {
			return false
		}
		i := sort.SearchInts(ks, fromPos+1)
		return i < len(ks) && ks[i] < toPos
	}

	seen := map[Edge]bool{}
	emit := func(e Edge) {
		if !seen[e] {
			seen[e] = true
			g.Edges = append(g.Edges, e)
		}
	}

	for _, a := range ids {
		sa := nodeSets(a)
		for _, b := range ids {
			sb := nodeSets(b)
			// Intra-iteration edges require forward control flow.
			if pos(a) < pos(b) {
				for loc := range sa.Writes {
					if sb.Reads[loc] && !killedBetween(loc, pos(a), pos(b)) {
						emit(Edge{From: a, To: b, Kind: FD, Loc: loc})
					}
				}
				for loc := range sa.Reads {
					if sb.Writes[loc] {
						emit(Edge{From: a, To: b, Kind: AD, Loc: loc})
					}
				}
				for loc := range sa.Writes {
					if sb.Writes[loc] {
						emit(Edge{From: a, To: b, Kind: OD, Loc: loc})
					}
				}
			}
			// Loop-carried edges: any pair (including self), value crossing
			// the back edge; pruned by definite kills along the wrap-around
			// window. Only built when a header exists (i.e. this is a loop).
			if header == nil {
				continue
			}
			// The header cannot be a carried-edge source: its writes (the
			// foreach element variable) are re-killed at the top of every
			// iteration before any body statement runs.
			if a == Header {
				continue
			}
			for loc := range sa.Writes {
				if sb.Reads[loc] && !killedIn(loc, pos(a), pos(b)) {
					emit(Edge{From: a, To: b, Kind: LCFD, Loc: loc})
				}
			}
			for loc := range sa.Reads {
				if sb.Writes[loc] {
					emit(Edge{From: a, To: b, Kind: LCAD, Loc: loc})
				}
			}
			for loc := range sa.Writes {
				if sb.Writes[loc] {
					emit(Edge{From: a, To: b, Kind: LCOD, Loc: loc})
				}
			}
		}
	}
	return g
}

// PairEdges computes the intra-iteration dependences between two ADJACENT
// statements directly from their read/write sets (no kill analysis is needed
// because nothing executes between them). Edges use From=0 for a, To=1 for
// b. This is the cheap primitive the moveAfter procedure leans on.
func PairEdges(a, b ir.Stmt, reg *ir.Registry) []Edge {
	sa := StmtSets(a, reg)
	sb := StmtSets(b, reg)
	var out []Edge
	for loc := range sa.Writes {
		if sb.Reads[loc] {
			out = append(out, Edge{From: 0, To: 1, Kind: FD, Loc: loc})
		}
	}
	for loc := range sa.Reads {
		if sb.Writes[loc] {
			out = append(out, Edge{From: 0, To: 1, Kind: AD, Loc: loc})
		}
	}
	for loc := range sa.Writes {
		if sb.Writes[loc] {
			out = append(out, Edge{From: 0, To: 1, Kind: OD, Loc: loc})
		}
	}
	return out
}

// TrueDepPath reports whether a path of FD/LCFD edges leads from node a to
// node b (Definition 4.1). a == b asks for a cycle through a.
func (g *Graph) TrueDepPath(a, b int) bool {
	adj := map[int][]int{}
	for _, e := range g.Edges {
		if e.Kind.IsFlow() {
			adj[e.From] = append(adj[e.From], e.To)
		}
	}
	visited := map[int]bool{}
	var dfs func(x int) bool
	var started bool
	var target int = b
	dfs = func(x int) bool {
		if x == target && started {
			return true
		}
		if visited[x] {
			return false
		}
		visited[x] = true
		for _, y := range adj[x] {
			started = true
			if y == target {
				return true
			}
			if dfs(y) {
				return true
			}
		}
		return false
	}
	for _, y := range adj[a] {
		if y == b {
			return true
		}
		if dfs(y) {
			return true
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
