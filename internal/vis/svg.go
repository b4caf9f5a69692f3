package vis

import (
	"unsafe"

	"quantumdd/internal/cnum"
)

// Mode selects one of the tool's visualization styles (Fig. 7).
type Mode int

const (
	// Classic mimics research-paper figures: weight labels on edges,
	// dashed lines for non-unit weights, 0-stubs retracted into nodes.
	Classic Mode = iota
	// Colored drops the labels and encodes magnitude as thickness and
	// phase as an HLS hue (Fig. 7(c), Fig. 6).
	Colored
	// Modern uses rounded nodes with branch-probability bars for a
	// more approachable look (Fig. 8/9 screenshots).
	Modern
)

// Style bundles the render options of the settings panel.
type Style struct {
	Mode Mode
	// ShowEdgeLabels forces/suppresses weight labels (Classic defaults
	// to true, others to false).
	ShowEdgeLabels *bool
}

func (s Style) labels() bool {
	if s.ShowEdgeLabels != nil {
		return *s.ShowEdgeLabels
	}
	return s.Mode == Classic
}

// svgBuilder appends SVG markup to one byte slice. Numbers go through
// appendFixed, so no fmt call runs per element.
type svgBuilder struct {
	buf []byte
}

func (b *svgBuilder) str(s string) { b.buf = append(b.buf, s...) }

// num appends s followed by x with prec decimals.
func (b *svgBuilder) num(s string, x float64, prec int) {
	b.buf = append(b.buf, s...)
	b.buf = appendFixed(b.buf, x, prec)
}

func (b *svgBuilder) open(w, h float64) {
	b.num(`<svg xmlns="http://www.w3.org/2000/svg" width="`, w, 0)
	b.num(`" height="`, h, 0)
	b.num(`" viewBox="0 0 `, w, 0)
	b.num(" ", h, 0)
	b.str("\" font-family=\"Helvetica,Arial,sans-serif\">\n<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n")
}

func (b *svgBuilder) close() { b.str("</svg>\n") }

// String returns the accumulated markup without copying it, as
// strings.Builder does; the builder must not be written to afterwards.
func (b *svgBuilder) String() string {
	return unsafe.String(unsafe.SliceData(b.buf), len(b.buf))
}

// lineTo appends a line element up to the opening quote of its stroke
// color, which the caller appends before calling lineEnd.
func (b *svgBuilder) lineTo(x1, y1, x2, y2 float64) {
	b.num(`<line x1="`, x1, 1)
	b.num(`" y1="`, y1, 1)
	b.num(`" x2="`, x2, 1)
	b.num(`" y2="`, y2, 1)
	b.str(`" stroke="`)
}

func (b *svgBuilder) lineEnd(width float64, dashed bool) {
	b.num(`" stroke-width="`, width, 2)
	if dashed {
		b.str(`" stroke-dasharray="5,3`)
	}
	b.str("\"/>\n")
}

// edge draws a weighted edge in the style's color, width and dashing.
func (b *svgBuilder) edge(x1, y1, x2, y2 float64, s Style, w complex128) {
	b.lineTo(x1, y1, x2, y2)
	if s.Mode == Colored {
		b.buf = appendPhaseColor(b.buf, w)
	} else {
		b.str("black")
	}
	b.lineEnd(edgeWidth(s, w), dashedFor(s, w))
}

func (b *svgBuilder) text(x, y float64, s string, size float64, anchor string) {
	b.num(`<text x="`, x, 1)
	b.num(`" y="`, y, 1)
	b.num(`" font-size="`, size, 0)
	b.str(`" text-anchor="`)
	b.str(anchor)
	b.str(`">`)
	b.buf = appendEscaped(b.buf, s)
	b.str("</text>\n")
}

// rect appends a rect element up to the end of its geometry; the
// caller appends the remaining attributes and the closing "/>\n".
func (b *svgBuilder) rect(x, y, w, h float64) {
	b.num(`<rect x="`, x, 1)
	b.num(`" y="`, y, 1)
	b.num(`" width="`, w, 1)
	b.num(`" height="`, h, 1)
	b.str(`"`)
}

// appendEscaped appends s with &, < and > replaced by entities.
func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// SVG renders the graph (which must have been laid out by the caller
// or will be laid out here) in the given style.
func (g *Graph) SVG(style Style) string { return g.svg(style, "") }

// svg renders the graph with an optional caption line (e.g. the last
// executed gate) placed right after the background rect.
func (g *Graph) svg(style Style, caption string) string {
	w, h := g.Layout()
	labels := style.labels()
	// Sized from measured output so that most frames never regrow:
	// about 190 bytes per node (500 with probability bars), 120 per
	// edge and 60 more per edge when weights are labelled.
	nodeBytes, edgeBytes := 190, 120
	if style.Mode == Modern && g.Kind == KindVector {
		nodeBytes = 500
	}
	if labels {
		edgeBytes += 60
	}
	b := svgBuilder{buf: make([]byte, 0, 512+len(caption)+nodeBytes*len(g.Nodes)+edgeBytes*len(g.Edges))}
	b.open(w, h)
	if caption != "" {
		b.str(`<text x="8" y="16" font-size="12" fill="#555">`)
		b.buf = appendEscaped(b.buf, caption)
		b.str("</text>\n")
	}

	portX := func(n *Node, port, nports int) float64 {
		span := nodeRadius * 1.6
		return n.X - span/2 + span*(float64(port)+0.5)/float64(nports)
	}

	// Root arrow.
	if g.Root != noNode {
		rn := &g.Nodes[g.Root]
		b.edge(rn.X, rn.Y-levelGap, rn.X, rn.Y-nodeRadius-2, style, g.RootWeight)
		if labels && !cnum.IsOne(g.RootWeight, 1e-9) {
			b.text(rn.X+6, rn.Y-levelGap+14, cnum.FormatComplex(g.RootWeight), 11, "start")
		}
		b.num(`<path d="M`, rn.X, 1)
		b.num(",", rn.Y-nodeRadius-2, 1)
		b.str(" l-4,-7 l8,0 Z\" fill=\"black\"/>\n")
	}

	// Edges beneath nodes.
	for _, e := range g.Edges {
		from := &g.Nodes[e.From]
		x1 := portX(from, e.Port, e.NPorts)
		y1 := from.Y + nodeRadius - 2
		if e.Zero {
			// Retracted 0-stub: a short tick with a tiny "0".
			if style.Mode != Colored {
				b.lineTo(x1, y1, x1, y1+8)
				b.str("#999999")
				b.lineEnd(1, false)
				b.text(x1, y1+17, "0", 8, "middle")
			}
			continue
		}
		to := &g.Nodes[e.To]
		x2, y2 := to.X, to.Y-nodeRadius+2
		if to.Terminal {
			y2 = to.Y - terminalSize/2 - 1
		}
		b.edge(x1, y1, x2, y2, style, e.Weight)
		if labels && !cnum.IsOne(e.Weight, 1e-9) {
			mx, my := (x1+x2)/2, (y1+y2)/2
			b.text(mx+5, my, cnum.FormatComplex(e.Weight), 10, "start")
		}
	}

	// Nodes on top.
	for i := range g.Nodes {
		n := &g.Nodes[i]
		switch {
		case n.Terminal:
			b.rect(n.X-terminalSize/2, n.Y-terminalSize/2, terminalSize, terminalSize)
			b.str(" fill=\"white\" stroke=\"black\" stroke-width=\"1.4\"/>\n")
			b.text(n.X, n.Y+4, "1", 12, "middle")
		case style.Mode == Modern:
			wBox, hBox := nodeRadius*2.4, nodeRadius*1.8
			b.rect(n.X-wBox/2, n.Y-hBox/2, wBox, hBox)
			b.str(" rx=\"8\" fill=\"#eef4ff\" stroke=\"#35507a\" stroke-width=\"1.4\"/>\n")
			b.text(n.X, n.Y-2, n.Label, 11, "middle")
			// Probability bars for vector nodes: the squared branch
			// weights (the values the measurement dialog shows).
			if g.Kind == KindVector && len(n.Probs) == 2 {
				barW := wBox/2 - 6
				for k, p := range n.Probs {
					x := n.X - wBox/2 + 4 + float64(k)*(barW+4)
					b.num(`<rect x="`, x, 1)
					b.num(`" y="`, n.Y+5, 1)
					b.num(`" width="`, barW, 1)
					b.str("\" height=\"4\" fill=\"#d4ddec\"/>\n")
					b.num(`<rect x="`, x, 1)
					b.num(`" y="`, n.Y+5, 1)
					b.num(`" width="`, barW*clamp01(p), 1)
					b.str("\" height=\"4\" fill=\"#35507a\"/>\n")
				}
			}
		default:
			b.num(`<circle cx="`, n.X, 1)
			b.num(`" cy="`, n.Y, 1)
			b.num(`" r="`, nodeRadius, 1)
			b.str("\" fill=\"white\" stroke=\"black\" stroke-width=\"1.4\"/>\n")
			b.text(n.X, n.Y+4, n.Label, 12, "middle")
		}
	}
	b.close()
	return b.String()
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func edgeWidth(s Style, w complex128) float64 {
	if s.Mode == Colored {
		return MagnitudeWidth(w)
	}
	return 1.4
}

// dashedFor implements the classic-style convention: edges with a
// weight different from 1 are dashed.
func dashedFor(s Style, w complex128) bool {
	if s.Mode != Classic {
		return false
	}
	return !cnum.IsOne(w, 1e-9)
}

// FrameSVG renders a diagram with a caption; exported for the web UI
// and the animation exporter.
func FrameSVG(g *Graph, style Style, caption string) string { return g.svg(style, caption) }
