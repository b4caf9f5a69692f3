package vis

import (
	"slices"
	"unsafe"

	"quantumdd/internal/cnum"
	"quantumdd/internal/jsonenc"
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

// frag is a constant piece of SVG markup in both output forms the
// writer has: [0] the markup itself, [1] the same bytes escaped as the
// contents of a JSON string ('"' and newline escaped). Both forms are
// computed once at init, so writing either is a plain append.
type frag [2]string

func mk(s string) frag { return frag{s, string(jsonenc.AppendEscaped(nil, s))} }

// The markup fragments of the diagram and color-wheel writers.
var (
	fSVGOpen      = mk(`<svg xmlns="http://www.w3.org/2000/svg" width="`)
	fHeight       = mk(`" height="`)
	fViewBox      = mk(`" viewBox="0 0 `)
	fSpace        = mk(" ")
	fComma        = mk(",")
	fSVGHead      = mk("\" font-family=\"Helvetica,Arial,sans-serif\">\n<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n")
	fSVGClose     = mk("</svg>\n")
	fLineX1       = mk(`<line x1="`)
	fY1           = mk(`" y1="`)
	fX2           = mk(`" x2="`)
	fY2           = mk(`" y2="`)
	fStroke       = mk(`" stroke="`)
	fStrokeWidth  = mk(`" stroke-width="`)
	fDashed       = mk(`" stroke-dasharray="5,3`)
	fEndTag       = mk("\"/>\n")
	fBlack        = mk("black")
	fZeroStub     = mk("#999999")
	fTextX        = mk(`<text x="`)
	fY            = mk(`" y="`)
	fFontSize     = mk(`" font-size="`)
	fTextAnchor   = mk(`" text-anchor="`)
	fTagEnd       = mk(`">`)
	fTextClose    = mk("</text>\n")
	fCaption      = mk(`<text x="8" y="16" font-size="12" fill="#555">`)
	fRectX        = mk(`<rect x="`)
	fWidth        = mk(`" width="`)
	fQuote        = mk(`"`)
	fPath         = mk(`<path d="M`)
	fRootHead     = mk(" l-4,-7 l8,0 Z\" fill=\"black\"/>\n")
	fPlainFill    = mk(" fill=\"white\" stroke=\"black\" stroke-width=\"1.4\"/>\n")
	fModernFill   = mk(" rx=\"8\" fill=\"#eef4ff\" stroke=\"#35507a\" stroke-width=\"1.4\"/>\n")
	fBarTrack     = mk("\" height=\"4\" fill=\"#d4ddec\"/>\n")
	fBarFill      = mk("\" height=\"4\" fill=\"#35507a\"/>\n")
	fCircleCX     = mk(`<circle cx="`)
	fCY           = mk(`" cy="`)
	fR            = mk(`" r="`)
	fCirclePlain  = mk("\" fill=\"white\" stroke=\"black\" stroke-width=\"1.4\"/>\n")
	fWheelL       = mk(" L")
	fWheelA       = mk(" A")
	fWheelArcOut  = mk(" 0 0 1 ")
	fWheelArcIn   = mk(" 0 0 0 ")
	fWheelFill    = mk(" Z\" fill=\"")
	fWheelSegment = mk("\" stroke=\"none\"/>\n")
)

// svgBuilder appends SVG markup to one byte slice, either as markup
// (esc 0) or already escaped as the contents of a JSON string (esc 1).
// Numbers go through appendFixed and colors through appendPhaseColor;
// neither ever produces a byte JSON escapes, so they are appended in
// both forms alike, and no fmt call runs per element.
type svgBuilder struct {
	buf []byte
	esc int
}

func (b *svgBuilder) str(f frag) { b.buf = append(b.buf, f[b.esc&1]...) }

// num appends f followed by x with prec decimals.
func (b *svgBuilder) num(f frag, x float64, prec int) {
	b.buf = append(b.buf, f[b.esc&1]...)
	b.buf = appendFixed(b.buf, x, prec)
}

func (b *svgBuilder) open(w, h float64) {
	b.num(fSVGOpen, w, 0)
	b.num(fHeight, h, 0)
	b.num(fViewBox, w, 0)
	b.num(fSpace, h, 0)
	b.str(fSVGHead)
}

func (b *svgBuilder) close() { b.str(fSVGClose) }

// String returns the accumulated markup without copying it, as
// strings.Builder does; the builder must not be written to afterwards.
func (b *svgBuilder) String() string {
	return unsafe.String(unsafe.SliceData(b.buf), len(b.buf))
}

// lineTo appends a line element up to the opening quote of its stroke
// color, which the caller appends before calling lineEnd.
func (b *svgBuilder) lineTo(x1, y1, x2, y2 float64) {
	b.num(fLineX1, x1, 1)
	b.num(fY1, y1, 1)
	b.num(fX2, x2, 1)
	b.num(fY2, y2, 1)
	b.str(fStroke)
}

func (b *svgBuilder) lineEnd(width float64, dashed bool) {
	b.num(fStrokeWidth, width, 2)
	if dashed {
		b.str(fDashed)
	}
	b.str(fEndTag)
}

// edge draws a weighted edge in the style's color, width and dashing.
func (b *svgBuilder) edge(x1, y1, x2, y2 float64, s Style, w complex128) {
	b.lineTo(x1, y1, x2, y2)
	if s.Mode == Colored {
		b.buf = appendPhaseColor(b.buf, w)
	} else {
		b.str(fBlack)
	}
	b.lineEnd(edgeWidth(s, w), dashedFor(s, w))
}

// text appends a text element; anchor is "start" or "middle", which
// need no escaping in either form.
func (b *svgBuilder) text(x, y float64, s string, size float64, anchor string) {
	b.num(fTextX, x, 1)
	b.num(fY, y, 1)
	b.num(fFontSize, size, 0)
	b.str(fTextAnchor)
	b.buf = append(b.buf, anchor...)
	b.str(fTagEnd)
	b.escText(s)
	b.str(fTextClose)
}

// rect appends a rect element up to the end of its geometry; the
// caller appends the remaining attributes and the closing "/>\n".
func (b *svgBuilder) rect(x, y, w, h float64) {
	b.num(fRectX, x, 1)
	b.num(fY, y, 1)
	b.num(fWidth, w, 1)
	b.num(fHeight, h, 1)
	b.str(fQuote)
}

// escText appends dynamic text (captions, labels, weights) with &, <
// and > replaced by entities, and in JSON form JSON-escapes the rest.
// Cutting s at those ASCII bytes never splits a UTF-8 sequence, so
// escaping the runs between them gives the bytes of JSON-escaping the
// whole XML-escaped text.
func (b *svgBuilder) escText(s string) {
	start := 0
	for i := 0; i < len(s); i++ {
		var entity string
		switch s[i] {
		case '&':
			entity = "&amp;"
		case '<':
			entity = "&lt;"
		case '>':
			entity = "&gt;"
		default:
			continue
		}
		b.run(s[start:i])
		b.buf = append(b.buf, entity...)
		start = i + 1
	}
	b.run(s[start:])
}

func (b *svgBuilder) run(s string) {
	if b.esc == 0 {
		b.buf = append(b.buf, s...)
	} else {
		b.buf = jsonenc.AppendEscaped(b.buf, s)
	}
}

// SVG renders the graph (which must have been laid out by the caller
// or will be laid out here) in the given style.
func (g *Graph) SVG(style Style) string { return g.svg(style, "") }

// svg renders the graph with an optional caption line (e.g. the last
// executed gate) placed right after the background rect.
func (g *Graph) svg(style Style, caption string) string {
	b := svgBuilder{buf: make([]byte, 0, g.svgSize(style, caption))}
	b.diagram(g, style, caption)
	return b.String()
}

// svgSize estimates the markup size from measured output so that most
// frames never regrow: about 190 bytes per node (500 with probability
// bars), 120 per edge and 60 more per edge when weights are labelled.
func (g *Graph) svgSize(style Style, caption string) int {
	nodeBytes, edgeBytes := 190, 120
	if style.Mode == Modern && g.Kind == KindVector {
		nodeBytes = 500
	}
	if style.labels() {
		edgeBytes += 60
	}
	return 512 + len(caption) + nodeBytes*len(g.Nodes) + edgeBytes*len(g.Edges)
}

// diagram appends the rendered graph.
func (b *svgBuilder) diagram(g *Graph, style Style, caption string) {
	w, h := g.Layout()
	labels := style.labels()
	b.open(w, h)
	if caption != "" {
		b.str(fCaption)
		b.escText(caption)
		b.str(fTextClose)
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
		b.num(fPath, rn.X, 1)
		b.num(fComma, rn.Y-nodeRadius-2, 1)
		b.str(fRootHead)
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
				b.str(fZeroStub)
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
			b.str(fPlainFill)
			b.text(n.X, n.Y+4, "1", 12, "middle")
		case style.Mode == Modern:
			wBox, hBox := nodeRadius*2.4, nodeRadius*1.8
			b.rect(n.X-wBox/2, n.Y-hBox/2, wBox, hBox)
			b.str(fModernFill)
			b.text(n.X, n.Y-2, n.Label, 11, "middle")
			// Probability bars for vector nodes: the squared branch
			// weights (the values the measurement dialog shows).
			if g.Kind == KindVector && len(n.Probs) == 2 {
				barW := wBox/2 - 6
				for k, p := range n.Probs {
					x := n.X - wBox/2 + 4 + float64(k)*(barW+4)
					b.num(fRectX, x, 1)
					b.num(fY, n.Y+5, 1)
					b.num(fWidth, barW, 1)
					b.str(fBarTrack)
					b.num(fRectX, x, 1)
					b.num(fY, n.Y+5, 1)
					b.num(fWidth, barW*clamp01(p), 1)
					b.str(fBarFill)
				}
			}
		default:
			b.num(fCircleCX, n.X, 1)
			b.num(fCY, n.Y, 1)
			b.num(fR, nodeRadius, 1)
			b.str(fCirclePlain)
			b.text(n.X, n.Y+4, n.Label, 12, "middle")
		}
	}
	b.close()
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

// AppendFrameSVGJSON appends FrameSVG(g, style, caption) to dst as a
// quoted JSON string, byte-identical to encoding/json's encoding of it
// without HTML escaping. The markup is escaped while it is written, so
// the frame responses never hold the SVG as a separate string.
func AppendFrameSVGJSON(dst []byte, g *Graph, style Style, caption string) []byte {
	// Escaping adds about one byte in ten (each '"' becomes \").
	b := svgBuilder{buf: slices.Grow(dst, g.svgSize(style, caption)*9/8+2), esc: 1}
	b.buf = append(b.buf, '"')
	b.diagram(g, style, caption)
	return append(b.buf, '"')
}
