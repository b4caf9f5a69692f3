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

// The markup fragments of the diagram and color-wheel writers. Every
// attribute is single-quoted and no fragment holds a byte JSON
// escapes, so a fragment is appended alike in both output forms.
//
// The root carries the presentation attributes most elements share
// (stroke-width, font-size, text-anchor); an element omits one whose
// value equals the root's. Elements follow each other without a
// newline; an edge is a two-point path.
const (
	fSVGOpen      = `<svg xmlns='http://www.w3.org/2000/svg' width='`
	fHeight       = `' height='`
	fViewBox      = `' viewBox='0 0 `
	fSpace        = " "
	fComma        = ","
	fSVGHead      = `' font-family='Helvetica,Arial,sans-serif' stroke-width='1.4' font-size='12' text-anchor='middle'><rect width='100%' height='100%' fill='white'/>`
	fPath         = `<path d='M`
	fLineTo       = "L"
	fStroke       = `' stroke='`
	fStrokeWidth  = `' stroke-width='`
	fDashed       = `' stroke-dasharray='5,3`
	fEndTag       = `'/>`
	fBlack        = "black"
	fZeroStub     = "#999999"
	fTextX        = `<text x='`
	fY            = `' y='`
	fFontSize     = `' font-size='`
	fTextAnchor   = `' text-anchor='`
	fTagEnd       = `'>`
	fTextClose    = "</text>"
	fCaption      = `<text x='8' y='16' text-anchor='start' fill='#555'>`
	fRectX        = `<rect x='`
	fWidth        = `' width='`
	fQuote        = `'`
	fRootHead     = ` l-4,-7 l8,0 Z' fill='black'/>`
	fPlainFill    = ` fill='white' stroke='black'/>`
	fModernFill   = ` rx='8' fill='#eef4ff' stroke='#35507a'/>`
	fBarTrack     = `' height='4' fill='#d4ddec'/>`
	fBarFill      = `' height='4' fill='#35507a'/>`
	fCircleCX     = `<circle cx='`
	fCY           = `' cy='`
	fR            = `' r='`
	fCirclePlain  = `' fill='white' stroke='black'/>`
	fWheelL       = " L"
	fWheelA       = " A"
	fWheelArcOut  = " 0 0 1 "
	fWheelArcIn   = " 0 0 0 "
	fWheelFill    = ` Z' fill='`
	fWheelSegment = `' stroke='none'/>`

	// The root's values of the inherited presentation attributes, as
	// fSVGHead writes them.
	rootStrokeWidth = "1.4"
	rootFontSize    = 12
	rootAnchor      = "middle"
)

// svgBuilder appends SVG markup to one byte slice, either as markup
// or already escaped as the contents of a JSON string (json set).
// Numbers go through appendFixed and colors through appendPhaseColor;
// neither ever produces a byte JSON escapes, so, like the fragments,
// they are appended in both forms alike, and no fmt call runs per
// element. Only text content and the final newline differ.
type svgBuilder struct {
	buf  []byte
	json bool
}

func (b *svgBuilder) str(f string) { b.buf = append(b.buf, f...) }

// num appends f followed by x with prec decimals, less trailing
// zeros and a bare decimal point (72.0 → 72, 1.40 → 1.4).
func (b *svgBuilder) num(f string, x float64, prec int) {
	b.buf = append(b.buf, f...)
	b.buf = appendFixed(b.buf, x, prec)
	if prec == 0 {
		return
	}
	// appendFixed wrote a decimal point, so the zeros stop there.
	n := len(b.buf)
	for b.buf[n-1] == '0' {
		n--
	}
	if b.buf[n-1] == '.' {
		n--
	}
	b.buf = b.buf[:n]
}

func (b *svgBuilder) open(w, h float64) {
	b.num(fSVGOpen, w, 0)
	b.num(fHeight, h, 0)
	b.num(fViewBox, w, 0)
	b.num(fSpace, h, 0)
	b.str(fSVGHead)
}

func (b *svgBuilder) close() {
	if b.json {
		b.str(`</svg>\n`)
	} else {
		b.str("</svg>\n")
	}
}

// String returns the accumulated markup without copying it, as
// strings.Builder does; the builder must not be written to afterwards.
func (b *svgBuilder) String() string {
	return unsafe.String(unsafe.SliceData(b.buf), len(b.buf))
}

// lineTo appends a two-point path up to the opening quote of its
// stroke color, which the caller appends before calling lineEnd.
func (b *svgBuilder) lineTo(x1, y1, x2, y2 float64) {
	b.num(fPath, x1, 1)
	b.num(fSpace, y1, 1)
	b.num(fLineTo, x2, 1)
	b.num(fSpace, y2, 1)
	b.str(fStroke)
}

// lineEnd closes a line; a width that prints as the root's is omitted.
func (b *svgBuilder) lineEnd(width float64, dashed bool) {
	n := len(b.buf)
	b.num(fStrokeWidth, width, 2)
	if string(b.buf[n+len(fStrokeWidth):]) == rootStrokeWidth {
		b.buf = b.buf[:n]
	}
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
// need no escaping in either form. A size or anchor equal to the
// root's is omitted.
func (b *svgBuilder) text(x, y float64, s string, size float64, anchor string) {
	b.num(fTextX, x, 1)
	b.num(fY, y, 1)
	if size != rootFontSize {
		b.num(fFontSize, size, 0)
	}
	if anchor != rootAnchor {
		b.str(fTextAnchor)
		b.str(anchor)
	}
	b.str(fTagEnd)
	b.escText(s)
	b.str(fTextClose)
}

// rect appends a rect element up to the end of its geometry; the
// caller appends the remaining attributes and the closing "/>".
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
	if !b.json {
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

// svgSize estimates the markup size from the elements the frame
// draws, at byte costs fitted on the golden corpus: the estimate is at
// least the actual size for over 90 % of its frames and never more
// than 1.3 times it (TestSVGSizeEstimate), so few frames regrow their
// buffer and none is grossly oversized.
func (g *Graph) svgSize(style Style, caption string) int {
	const (
		fixed      = 420 // root, background, root arrow, terminal, close
		captionEl  = 60
		plainNode  = 95  // circle and label
		modernNode = 140 // rounded box and label
		probBars   = 260 // the four bars of a modern vector node
		plainEdge  = 45
		hueEdge    = 75  // with stroke color and width (Colored)
		zeroStub   = 110 // tick and its "0" (not drawn in Colored)
		dash       = 26
		weightText = 75
	)
	n := fixed
	if caption != "" {
		n += captionEl + len(caption)
	}
	node := plainNode
	if style.Mode == Modern {
		node = modernNode
		if g.Kind == KindVector {
			node += probBars
		}
	}
	if len(g.Nodes) > 1 {
		n += node * (len(g.Nodes) - 1)
	}
	edge, stub, weighted := plainEdge, zeroStub, 0
	switch style.Mode {
	case Classic:
		weighted = dash
	case Colored:
		edge, stub = hueEdge, 0
	}
	if style.labels() {
		weighted += weightText
	}
	// Only non-unit weights are dashed and labelled.
	if weighted > 0 && g.Root != noNode && !cnum.IsOne(g.RootWeight, 1e-9) {
		n += weighted
	}
	for _, e := range g.Edges {
		switch {
		case e.Zero:
			n += stub
		case weighted > 0 && !cnum.IsOne(e.Weight, 1e-9):
			n += edge + weighted
		default:
			n += edge
		}
	}
	// A margin for the longer coordinates of wide canvases, where the
	// fitted costs fall a few percent short.
	return n + n/16
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
		x1 := portX(from, int(e.Port), int(e.NPorts))
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
	b := svgBuilder{buf: slices.Grow(dst, g.svgSize(style, caption)+2), json: true}
	b.buf = append(b.buf, '"')
	b.diagram(g, style, caption)
	return append(b.buf, '"')
}
