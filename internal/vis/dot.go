package vis

import (
	"fmt"
	"strings"

	"quantumdd/internal/cnum"
)

// DOT renders the graph in Graphviz dot syntax for users who want to
// post-process diagrams with the standard toolchain. Levels are pinned
// with rank=same groups; zero stubs become point-shaped sinks, and the
// colored style options carry over as penwidth/color attributes.
func (g *Graph) DOT(style Style) string {
	var b strings.Builder
	b.WriteString("digraph dd {\n")
	b.WriteString("  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n  edge [arrowsize=0.6];\n")
	// Invisible root arrow source.
	if g.Root != noNode {
		b.WriteString("  root [shape=none, label=\"\"];\n")
	}
	// Rank groups per level, written from the top level down (the
	// order Text prints in) so one graph always exports the same bytes.
	var byLevel [][]NodeID
	for _, n := range g.Nodes {
		if n.Level < 0 {
			continue
		}
		for len(byLevel) <= n.Level {
			byLevel = append(byLevel, nil)
		}
		byLevel[n.Level] = append(byLevel[n.Level], n.ID)
	}
	for _, n := range g.Nodes {
		if n.Terminal {
			fmt.Fprintf(&b, "  n%d [shape=box, label=\"1\", width=0.3, height=0.3];\n", n.ID)
		} else {
			fmt.Fprintf(&b, "  n%d [shape=circle, label=\"%s\"];\n", n.ID, n.Label)
		}
	}
	for level := len(byLevel) - 1; level >= 0; level-- {
		ids := byLevel[level]
		if len(ids) < 2 {
			continue
		}
		b.WriteString("  { rank=same;")
		for _, id := range ids {
			fmt.Fprintf(&b, " n%d;", id)
		}
		b.WriteString(" }\n")
	}
	stubID := 0
	if g.Root != noNode {
		fmt.Fprintf(&b, "  root -> n%d [%s];\n", g.Root, dotEdgeAttrs(style, g.RootWeight))
	}
	for _, e := range g.Edges {
		if e.Zero {
			if style.Mode == Colored {
				continue
			}
			fmt.Fprintf(&b, "  z%d [shape=point, width=0.04, color=gray];\n", stubID)
			fmt.Fprintf(&b, "  n%d -> z%d [style=dotted, color=gray, label=\"0\", fontsize=8];\n", e.From, stubID)
			stubID++
			continue
		}
		fmt.Fprintf(&b, "  n%d -> n%d [%s];\n", e.From, e.To, dotEdgeAttrs(style, e.Weight))
	}
	b.WriteString("}\n")
	return b.String()
}

func dotEdgeAttrs(style Style, w complex128) string {
	var attrs []string
	if style.labels() && !cnum.IsOne(w, 1e-9) {
		attrs = append(attrs, fmt.Sprintf("label=\"%s\"", strings.ReplaceAll(cnum.FormatComplex(w), "\"", "'")), "fontsize=9")
	}
	switch style.Mode {
	case Classic:
		if !cnum.IsOne(w, 1e-9) {
			attrs = append(attrs, "style=dashed")
		}
	case Colored:
		attrs = append(attrs, fmt.Sprintf("color=\"%s\"", PhaseColor(w)), fmt.Sprintf("penwidth=%.2f", MagnitudeWidth(w)))
	}
	return strings.Join(attrs, ", ")
}
