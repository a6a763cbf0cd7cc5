package dataflow

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// Dot renders the DDG in Graphviz dot format, mirroring the paper's Figure 1
// style: solid edges for flow dependences, dashed for anti, dotted for
// output; loop-carried edges are labelled LC*.
func (g *Graph) Dot(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n", title)
	fmt.Fprintf(&b, "  h [label=\"header (cond)\"];\n")
	for i, s := range g.Stmts {
		label := ir.PrintStmt(s)
		label = strings.ReplaceAll(label, "\"", "\\\"")
		if len(label) > 60 {
			label = label[:57] + "..."
		}
		fmt.Fprintf(&b, "  s%d [label=\"s%d: %s\"];\n", i, i, label)
	}
	name := func(id int) string {
		if id == Header {
			return "h"
		}
		return fmt.Sprintf("s%d", id)
	}
	for _, e := range g.Edges {
		style := "solid"
		switch e.Kind {
		case AD, LCAD:
			style = "dashed"
		case OD, LCOD:
			style = "dotted"
		}
		fmt.Fprintf(&b, "  %s -> %s [label=\"%s %s\", style=%s];\n",
			name(e.From), name(e.To), e.Kind, e.Loc, style)
	}
	b.WriteString("}\n")
	return b.String()
}
