// Package core drives the paper's transformation pipeline end to end
// (Figure 7): build dependence information, apply Rule B where the query sits
// under control flow, run the statement reordering algorithm when
// loop-carried flow dependences cross the split, apply Rule A loop fission,
// handle nested loops inner-first, and finally regroup guarded statements for
// readability. It also produces the applicability report behind the paper's
// Table I.
package core

import (
	"errors"
	"strings"

	"repro/internal/ir"
	"repro/internal/rules"
)

// Options configures Transform.
type Options struct {
	// Registry supplies function signatures; nil uses ir.NewRegistry().
	Registry *ir.Registry
	// Readable applies the §V regrouping pass to the transformed program.
	Readable bool
	// OnlyQueries restricts transformation to the named prepared queries
	// (the paper's "user can specify which query submission statements to be
	// transformed", §VII). Empty means all.
	OnlyQueries []string
}

// DefaultOptions mirror the tool's defaults: readable output. Nested-loop
// fission (§III-D) is not an option: it is always on.
func DefaultOptions() Options {
	return Options{Readable: true}
}

// Site records the outcome for one loop that contains query executions — one
// row of the applicability analysis.
type Site struct {
	Loop        string // one-line rendering of the loop header
	Queries     int    // blocking query statements directly in the loop
	Converted   int    // how many became submit/fetch pairs
	UsedReorder bool   // statement reordering was required
	UsedFlatten bool   // Rule B was required
	Reasons     []string
}

// Transformed reports whether the site was exploited (at least one query
// became asynchronous).
func (s *Site) Transformed() bool { return s.Converted > 0 }

// Report aggregates sites for a procedure; it feeds Table I.
type Report struct {
	Proc  string
	Sites []Site
}

// Opportunities counts loops containing query executions.
func (r *Report) Opportunities() int { return len(r.Sites) }

// TransformedCount counts exploited sites.
func (r *Report) TransformedCount() int {
	n := 0
	for i := range r.Sites {
		if r.Sites[i].Transformed() {
			n++
		}
	}
	return n
}

// Transform rewrites a clone of p for asynchronous query submission and
// reports per-site applicability. The input procedure is never modified.
func Transform(p *ir.Proc, opts Options) (*ir.Proc, *Report, error) {
	reg := opts.Registry
	if reg == nil {
		reg = ir.NewRegistry()
	}
	out := ir.CloneProc(p)
	c := &tctx{
		reg:    reg,
		gen:    ir.NewNameGen(out),
		opts:   opts,
		report: &Report{Proc: p.Name},
	}
	c.transformBlock(out.Body)
	if opts.Readable {
		rules.Regroup(out.Body)
	}
	return out, c.report, nil
}

// Analyze runs the applicability analysis without rewriting: it transforms a
// throwaway clone and returns the report.
func Analyze(p *ir.Proc, opts Options) *Report {
	opts.Readable = false
	_, rep, _ := Transform(p, opts)
	return rep
}

type tctx struct {
	reg    *ir.Registry
	gen    *ir.NameGen
	opts   Options
	report *Report
}

func (c *tctx) transformBlock(b *ir.Block) {
	for i := 0; i < len(b.Stmts); i++ {
		switch s := b.Stmts[i].(type) {
		case *ir.While, *ir.ForEach, *ir.Scan:
			i += c.transformLoop(b, i) - 1
		case *ir.If:
			c.transformBlock(s.Then)
			if s.Else != nil {
				c.transformBlock(s.Else)
			}
		}
	}
}

// transformLoop transforms the loop at parent.Stmts[idx] and returns the
// number of statements now occupying its place.
func (c *tctx) transformLoop(parent *ir.Block, idx int) int {
	loop := parent.Stmts[idx]
	body := ir.LoopBody(loop)

	// Inner loops first (§III-D). Remember the scan loop the first fissioned
	// inner loop leaves behind: the outer loop can be cut there.
	var pivot ir.Stmt
	for j := 0; j < len(body.Stmts); j++ {
		if ir.LoopBody(body.Stmts[j]) != nil {
			span := c.transformLoop(body, j)
			if span > 1 && pivot == nil {
				pivot = firstScan(body.Stmts[j : j+span])
			}
			j += span - 1
		}
	}

	queries := directQueries(body)
	barrier := hasBarrierCall(body, c.reg)
	if len(queries) == 0 && !barrier {
		if pivot != nil {
			// Nested-loop fission (§III-D): cutting at the inner scan
			// completes all inner submissions of all outer iterations before
			// any result is consumed.
			if span, _, _, err := c.cut(parent, idx, pivot); err == nil {
				return span
			}
		}
		return 1
	}

	site := Site{Loop: loopHeaderString(loop), Queries: len(queries)}
	defer func() { c.report.Sites = append(c.report.Sites, site) }()

	if barrier {
		site.Reasons = append(site.Reasons, string(rules.ReasonBarrier))
		if site.Queries == 0 {
			site.Queries = 1 // the query hidden inside the recursive callee
		}
		return 1
	}

	// Rule B when queries sit under conditionals.
	if queryInsideIf(body) {
		if err := rules.Flatten(body, c.gen); err != nil {
			site.Reasons = append(site.Reasons, errReason(err))
			return 1
		}
		site.UsedFlatten = true
	}

	return c.fissionChain(parent, idx, &site)
}

// cut applies Rule A to the loop at parent.Stmts[idx] at pivot — a blocking
// query, or the scan a transformed inner loop left behind — after the
// reorder algorithm has moved every carried flow dependence off the cut.
// reordered reports whether the reordering had to move anything.
func (c *tctx) cut(parent *ir.Block, idx int, pivot ir.Stmt) (span, scanIdx int, reordered bool, err error) {
	reordered, err = rules.Reorder(parent.Stmts[idx], pivot, c.reg, c.gen)
	if err != nil {
		return 0, 0, false, err
	}
	span, scanIdx, err = rules.Fission(parent, idx, pivot, c.reg, c.gen)
	return span, scanIdx, reordered, err
}

// fissionChain converts the blocking queries of the loop at parent.Stmts[idx]
// one by one: the first convertible query is cut through, and the remaining
// queries — now living in the generated scan loop — are handled recursively,
// exactly as the paper applies the rules repeatedly until every chosen query
// is non-blocking.
func (c *tctx) fissionChain(parent *ir.Block, idx int, site *Site) int {
	body := ir.LoopBody(parent.Stmts[idx])

	// A failed reorder may have moved the query statement to a later
	// position (rule applications are semantics-preserving, so the partial
	// reordering is kept); track attempts by identity so each query is
	// tried at most once per loop.
	attempted := map[ir.Stmt]bool{}
	for qi := 0; qi < len(body.Stmts); qi++ {
		sq, ok := body.Stmts[qi].(*ir.ExecQuery)
		if !ok || !c.wantQuery(sq) || attempted[sq] {
			continue
		}
		attempted[sq] = true
		span, scanIdx, reordered, err := c.cut(parent, idx, sq)
		site.UsedReorder = site.UsedReorder || reordered
		if err != nil {
			site.Reasons = append(site.Reasons, errReason(err))
			continue
		}
		site.Converted++
		// The loop's slot now holds [table, snapshots..., loop1,
		// restores..., scan]; remaining queries sit inside the scan loop
		// (and untransformable ones may remain in loop1, where they stay
		// blocking).
		return span - 1 + c.fissionChain(parent, scanIdx, site)
	}
	return 1
}

func (c *tctx) wantQuery(sq *ir.ExecQuery) bool {
	if len(c.opts.OnlyQueries) == 0 {
		return true
	}
	for _, q := range c.opts.OnlyQueries {
		if q == sq.Query {
			return true
		}
	}
	return false
}

func errReason(err error) string {
	var na *rules.NotApplicableError
	if errors.As(err, &na) {
		return string(na.Reason)
	}
	return err.Error()
}

// firstScan returns the first scan statement in stmts, or nil.
func firstScan(stmts []ir.Stmt) ir.Stmt {
	for _, s := range stmts {
		if _, ok := s.(*ir.Scan); ok {
			return s
		}
	}
	return nil
}

// directQueries lists the blocking query statements directly in the body,
// including those inside (possibly nested) conditionals, but not those in
// nested loops.
func directQueries(body *ir.Block) []*ir.ExecQuery {
	var out []*ir.ExecQuery
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		for _, s := range b.Stmts {
			switch x := s.(type) {
			case *ir.ExecQuery:
				out = append(out, x)
			case *ir.If:
				walk(x.Then)
				if x.Else != nil {
					walk(x.Else)
				}
			}
		}
	}
	walk(body)
	return out
}

// queryInsideIf reports whether any blocking query sits under a conditional.
func queryInsideIf(body *ir.Block) bool {
	for _, s := range body.Stmts {
		if x, ok := s.(*ir.If); ok {
			if len(directQueries(&ir.Block{Stmts: []ir.Stmt{x}})) > 0 {
				return true
			}
		}
	}
	return false
}

// hasBarrierCall reports whether the body (at any depth) calls a barrier
// function.
func hasBarrierCall(body *ir.Block, reg *ir.Registry) bool {
	found := false
	ir.WalkStmts(body, func(s ir.Stmt) {
		ir.WalkExprs(s, func(e ir.Expr) {
			if c, ok := e.(*ir.Call); ok {
				if sig := reg.Lookup(c.Fn); sig != nil && sig.Barrier {
					found = true
				}
			}
		})
	})
	return found
}

func loopHeaderString(loop ir.Stmt) string {
	s := ir.PrintStmt(loop)
	if i := strings.Index(s, "{"); i > 0 {
		s = strings.TrimSpace(s[:i])
	}
	return s
}
