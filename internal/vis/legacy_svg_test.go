package vis

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/cmplx"
	"testing"

	"quantumdd/internal/cnum"
)

// This file keeps the double-quoted, one-element-per-line SVG writer
// that preceded the compact markup, as the reference the compact
// writer is compared against (TestCompactSVGEquivalent). It is the
// markup form of that writer with its JSON form dropped; its output
// over the golden corpus hashes to legacySVGDigest.

// legacySVGDigest is the SHA-256 of the golden corpus rendered by the
// legacy writer: the value goldenSVGDigest had before the compact
// markup.
const legacySVGDigest = "d5ed37485e905461f9d5fa3b0edac67b19ba4f4984e00be40704d6e6bde865a9"

var legacyWriter = svgWriter{frame: legacyFrameSVG, wheel: legacyColorWheelSVG}

const (
	lSVGOpen      = `<svg xmlns="http://www.w3.org/2000/svg" width="`
	lHeight       = `" height="`
	lViewBox      = `" viewBox="0 0 `
	lSpace        = " "
	lComma        = ","
	lSVGHead      = "\" font-family=\"Helvetica,Arial,sans-serif\">\n<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n"
	lSVGClose     = "</svg>\n"
	lLineX1       = `<line x1="`
	lY1           = `" y1="`
	lX2           = `" x2="`
	lY2           = `" y2="`
	lStroke       = `" stroke="`
	lStrokeWidth  = `" stroke-width="`
	lDashed       = `" stroke-dasharray="5,3`
	lEndTag       = "\"/>\n"
	lBlack        = "black"
	lZeroStub     = "#999999"
	lTextX        = `<text x="`
	lY            = `" y="`
	lFontSize     = `" font-size="`
	lTextAnchor   = `" text-anchor="`
	lTagEnd       = `">`
	lTextClose    = "</text>\n"
	lCaption      = `<text x="8" y="16" font-size="12" fill="#555">`
	lRectX        = `<rect x="`
	lWidth        = `" width="`
	lQuote        = `"`
	lPath         = `<path d="M`
	lRootHead     = " l-4,-7 l8,0 Z\" fill=\"black\"/>\n"
	lPlainFill    = " fill=\"white\" stroke=\"black\" stroke-width=\"1.4\"/>\n"
	lModernFill   = " rx=\"8\" fill=\"#eef4ff\" stroke=\"#35507a\" stroke-width=\"1.4\"/>\n"
	lBarTrack     = "\" height=\"4\" fill=\"#d4ddec\"/>\n"
	lBarFill      = "\" height=\"4\" fill=\"#35507a\"/>\n"
	lCircleCX     = `<circle cx="`
	lCY           = `" cy="`
	lR            = `" r="`
	lCirclePlain  = "\" fill=\"white\" stroke=\"black\" stroke-width=\"1.4\"/>\n"
	lWheelL       = " L"
	lWheelA       = " A"
	lWheelArcOut  = " 0 0 1 "
	lWheelArcIn   = " 0 0 0 "
	lWheelFill    = " Z\" fill=\""
	lWheelSegment = "\" stroke=\"none\"/>\n"
)

type legacyBuilder struct{ buf []byte }

func (b *legacyBuilder) str(s string) { b.buf = append(b.buf, s...) }

func (b *legacyBuilder) num(s string, x float64, prec int) {
	b.buf = append(b.buf, s...)
	b.buf = appendFixed(b.buf, x, prec)
}

func (b *legacyBuilder) open(w, h float64) {
	b.num(lSVGOpen, w, 0)
	b.num(lHeight, h, 0)
	b.num(lViewBox, w, 0)
	b.num(lSpace, h, 0)
	b.str(lSVGHead)
}

func (b *legacyBuilder) lineTo(x1, y1, x2, y2 float64) {
	b.num(lLineX1, x1, 1)
	b.num(lY1, y1, 1)
	b.num(lX2, x2, 1)
	b.num(lY2, y2, 1)
	b.str(lStroke)
}

func (b *legacyBuilder) lineEnd(width float64, dashed bool) {
	b.num(lStrokeWidth, width, 2)
	if dashed {
		b.str(lDashed)
	}
	b.str(lEndTag)
}

func (b *legacyBuilder) edge(x1, y1, x2, y2 float64, s Style, w complex128) {
	b.lineTo(x1, y1, x2, y2)
	if s.Mode == Colored {
		b.buf = appendPhaseColor(b.buf, w)
	} else {
		b.str(lBlack)
	}
	b.lineEnd(edgeWidth(s, w), dashedFor(s, w))
}

func (b *legacyBuilder) text(x, y float64, s string, size float64, anchor string) {
	b.num(lTextX, x, 1)
	b.num(lY, y, 1)
	b.num(lFontSize, size, 0)
	b.str(lTextAnchor)
	b.str(anchor)
	b.str(lTagEnd)
	b.escText(s)
	b.str(lTextClose)
}

func (b *legacyBuilder) rect(x, y, w, h float64) {
	b.num(lRectX, x, 1)
	b.num(lY, y, 1)
	b.num(lWidth, w, 1)
	b.num(lHeight, h, 1)
	b.str(lQuote)
}

func (b *legacyBuilder) escText(s string) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			b.str("&amp;")
		case '<':
			b.str("&lt;")
		case '>':
			b.str("&gt;")
		default:
			b.buf = append(b.buf, s[i])
		}
	}
}

func legacyFrameSVG(g *Graph, style Style, caption string) string {
	var b legacyBuilder
	w, h := g.Layout()
	labels := style.labels()
	b.open(w, h)
	if caption != "" {
		b.str(lCaption)
		b.escText(caption)
		b.str(lTextClose)
	}

	portX := func(n *Node, port, nports int) float64 {
		span := nodeRadius * 1.6
		return n.X - span/2 + span*(float64(port)+0.5)/float64(nports)
	}

	if g.Root != noNode {
		rn := &g.Nodes[g.Root]
		b.edge(rn.X, rn.Y-levelGap, rn.X, rn.Y-nodeRadius-2, style, g.RootWeight)
		if labels && !cnum.IsOne(g.RootWeight, 1e-9) {
			b.text(rn.X+6, rn.Y-levelGap+14, cnum.FormatComplex(g.RootWeight), 11, "start")
		}
		b.num(lPath, rn.X, 1)
		b.num(lComma, rn.Y-nodeRadius-2, 1)
		b.str(lRootHead)
	}

	for _, e := range g.Edges {
		from := &g.Nodes[e.From]
		x1 := portX(from, int(e.Port), int(e.NPorts))
		y1 := from.Y + nodeRadius - 2
		if e.Zero {
			if style.Mode != Colored {
				b.lineTo(x1, y1, x1, y1+8)
				b.str(lZeroStub)
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

	for i := range g.Nodes {
		n := &g.Nodes[i]
		switch {
		case n.Terminal:
			b.rect(n.X-terminalSize/2, n.Y-terminalSize/2, terminalSize, terminalSize)
			b.str(lPlainFill)
			b.text(n.X, n.Y+4, "1", 12, "middle")
		case style.Mode == Modern:
			wBox, hBox := nodeRadius*2.4, nodeRadius*1.8
			b.rect(n.X-wBox/2, n.Y-hBox/2, wBox, hBox)
			b.str(lModernFill)
			b.text(n.X, n.Y-2, n.Label, 11, "middle")
			if g.Kind == KindVector && len(n.Probs) == 2 {
				barW := wBox/2 - 6
				for k, p := range n.Probs {
					x := n.X - wBox/2 + 4 + float64(k)*(barW+4)
					b.num(lRectX, x, 1)
					b.num(lY, n.Y+5, 1)
					b.num(lWidth, barW, 1)
					b.str(lBarTrack)
					b.num(lRectX, x, 1)
					b.num(lY, n.Y+5, 1)
					b.num(lWidth, barW*clamp01(p), 1)
					b.str(lBarFill)
				}
			}
		default:
			b.num(lCircleCX, n.X, 1)
			b.num(lCY, n.Y, 1)
			b.num(lR, nodeRadius, 1)
			b.str(lCirclePlain)
			b.text(n.X, n.Y+4, n.Label, 12, "middle")
		}
	}
	b.str(lSVGClose)
	return string(b.buf)
}

func legacyColorWheelSVG(size int) string {
	if size <= 0 {
		size = 160
	}
	cx := float64(size) / 2
	cy := float64(size) / 2
	rOuter := float64(size)*0.42 - 1
	rInner := rOuter * 0.55
	const segments = 72
	var b legacyBuilder
	b.open(float64(size), float64(size))
	for i := 0; i < segments; i++ {
		a0 := float64(i) / segments * 2 * math.Pi
		a1 := float64(i+1)/segments*2*math.Pi + 0.005
		b.num(lPath, cx+rInner*math.Cos(a0), 2)
		b.num(lComma, cy-rInner*math.Sin(a0), 2)
		b.num(lWheelL, cx+rOuter*math.Cos(a0), 2)
		b.num(lComma, cy-rOuter*math.Sin(a0), 2)
		b.num(lWheelA, rOuter, 2)
		b.num(lComma, rOuter, 2)
		b.num(lWheelArcOut, cx+rOuter*math.Cos(a1), 2)
		b.num(lComma, cy-rOuter*math.Sin(a1), 2)
		b.num(lWheelL, cx+rInner*math.Cos(a1), 2)
		b.num(lComma, cy-rInner*math.Sin(a1), 2)
		b.num(lWheelA, rInner, 2)
		b.num(lComma, rInner, 2)
		b.num(lWheelArcIn, cx+rInner*math.Cos(a0), 2)
		b.num(lComma, cy-rInner*math.Sin(a0), 2)
		b.str(lWheelFill)
		b.buf = appendPhaseColor(b.buf, cmplx.Exp(complex(0, a0)))
		b.str(lWheelSegment)
	}
	labels := []struct {
		angle float64
		text  string
	}{
		{0, "0"}, {math.Pi / 2, "π/2"}, {math.Pi, "π"}, {3 * math.Pi / 2, "3π/2"},
	}
	for _, l := range labels {
		x := cx + (rOuter+10)*math.Cos(l.angle)
		y := cy - (rOuter+10)*math.Sin(l.angle)
		b.text(x, y, l.text, 11, "middle")
	}
	b.str(lSVGClose)
	return string(b.buf)
}

// TestLegacySVGDigest proves the reference is the writer that preceded
// the compact markup: it reproduces that writer's golden digest.
func TestLegacySVGDigest(t *testing.T) {
	h := sha256.New()
	writeGoldenSVG(t, h, legacyWriter)
	if got := hex.EncodeToString(h.Sum(nil)); got != legacySVGDigest {
		t.Fatalf("legacy SVG digest = %s, want %s", got, legacySVGDigest)
	}
}
