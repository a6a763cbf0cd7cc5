package rules

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/minilang"
)

// genLoopProgram writes a random procedure over the variables a–d: a while
// loop or, nested, a while loop around an inner foreach. Loop statements are
// unguarded writes (definite kills), guarded writes, queries, updates, prints
// and in-place list mutations, so flow paths both run through and are cut by
// kills. The programs are only analysed, never run.
func genLoopProgram(rng *rand.Rand, nested bool) string {
	v := func() string { return string(rune('a' + rng.Intn(4))) }
	var b strings.Builder
	stmts := func(indent string) {
		for k := 2 + rng.Intn(7); k > 0; k-- {
			b.WriteString(indent)
			if rng.Intn(3) == 0 {
				b.WriteString("g ? ")
			}
			switch rng.Intn(7) {
			case 0:
				fmt.Fprintf(&b, "%s = execQuery(q, %s);\n", v(), v())
			case 1:
				fmt.Fprintf(&b, "print(%s);\n", v())
			case 2:
				fmt.Fprintf(&b, "execUpdate(u, %s);\n", v())
			case 3:
				fmt.Fprintf(&b, "%s = removeFirst(%s);\n", v(), v())
			case 4:
				fmt.Fprintf(&b, "g = %s > %s;\n", v(), v())
			default:
				fmt.Fprintf(&b, "%s = %s + %s;\n", v(), v(), v())
			}
		}
	}
	b.WriteString("proc gen(n) {\n  query q = \"select v from t where k = ?\";\n")
	b.WriteString("  query u = \"update t set v = v + 1 where k = ?\";\n")
	b.WriteString("  while (a < n) {\n")
	stmts("    ")
	if nested {
		fmt.Fprintf(&b, "    foreach e in %s {\n", v())
		stmts("      ")
		b.WriteString("    }\n")
		stmts("    ")
	}
	b.WriteString("  }\n  return a;\n}\n")
	return b.String()
}

// TestClosestSrcDepMatchesGraph holds the one-pass srcDeps walk to the
// dependence graph: for every loop of the applications, of the Table I
// corpus and of 200 generated single-loop and 200 two-level programs, and for
// every pair si < ti of its body, closestSrcDep names the statement in
// (si, ti) nearest ti that BuildLoop's intra-iteration FD edges reach from
// si. It also checks that BuildLoop emits no edge twice.
func TestClosestSrcDepMatchesGraph(t *testing.T) {
	type prog struct {
		name string
		proc *ir.Proc
		reg  *ir.Registry
	}
	var progs []prog
	for _, a := range apps.All() {
		progs = append(progs, prog{"app " + a.Name, a.Proc(), a.Registry()})
	}
	for _, c := range []*apps.CorpusApp{apps.AuctionCorpus(), apps.BulletinCorpus()} {
		for _, p := range c.Procs {
			progs = append(progs, prog{"corpus " + c.Name + " " + p.Name, p, ir.NewRegistry()})
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		for _, nested := range []bool{false, true} {
			src := genLoopProgram(rand.New(rand.NewSource(seed)), nested)
			progs = append(progs, prog{fmt.Sprintf("seed %d nested %v", seed, nested), minilang.MustParse(src), ir.NewRegistry()})
		}
	}
	loops, reached := 0, 0
	for _, pr := range progs {
		ir.WalkStmts(pr.proc.Body, func(loop ir.Stmt) {
			if ir.LoopBody(loop) == nil {
				return
			}
			loops++
			g := dataflow.BuildLoop(loop, pr.reg)
			seen := map[dataflow.Edge]bool{}
			succ := map[int][]int{}
			for _, e := range g.Edges {
				if seen[e] {
					t.Errorf("%s: BuildLoop emits %v twice", pr.name, e)
				}
				seen[e] = true
				if e.Kind == dataflow.FD && e.From != dataflow.Header {
					succ[e.From] = append(succ[e.From], e.To)
				}
			}
			for si := range g.Stmts {
				reach := map[int]bool{}
				for work := []int{si}; len(work) > 0; {
					x := work[len(work)-1]
					work = work[:len(work)-1]
					for _, y := range succ[x] {
						if !reach[y] {
							reach[y] = true
							work = append(work, y)
						}
					}
				}
				want := -1 // the reached statement in (si, ti) nearest ti
				for ti := si + 1; ti < len(g.Stmts); ti++ {
					if got := closestSrcDep(g.Stmts, pr.reg, si, ti); got != want {
						t.Fatalf("%s: closestSrcDep(%d, %d) = %d, graph reaches %d\n%s",
							pr.name, si, ti, got, want, ir.PrintStmt(loop))
					}
					if want >= 0 {
						reached++
					}
					if reach[ti] {
						want = ti
					}
				}
			}
		})
	}
	t.Logf("%d loops, %d pairs with a srcDeps statement", loops, reached)
	if reached == 0 {
		t.Fatal("no pair had a statement on a flow path")
	}
}
