package vis

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"maps"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/sim"
)

// initialValues are the SVG initial values of the inherited
// presentation properties the writers use.
var initialValues = map[string]string{
	"fill":             "black",
	"stroke":           "none",
	"stroke-width":     "1",
	"stroke-dasharray": "none",
	"font-family":      "",
	"font-size":        "medium",
	"text-anchor":      "start",
}

// svgElem is one element of a parsed SVG document, reduced to what
// it draws: its name (a <line> becomes a two-point <path>), its depth,
// its geometry with numbers normalized, the effective values of the
// presentation properties that apply to it, and its text content.
type svgElem struct {
	name  string
	depth int
	props map[string]string
	text  string
}

func (e svgElem) String() string {
	return fmt.Sprintf("<%s> depth %d %v %q", e.name, e.depth, e.props, e.text)
}

// numberLen returns the length of the decimal number s starts with,
// 0 if it starts with none.
func numberLen(s string) int {
	i, digits := 0, 0
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		i++
	}
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		digits++
	}
	if i < len(s) && s[i] == '.' {
		j := i + 1
		for ; j < len(s) && '0' <= s[j] && s[j] <= '9'; j++ {
			digits++
		}
		if digits > 0 {
			i = j
		}
	}
	if digits == 0 {
		return 0
	}
	return i
}

// normalize rewrites a value as its tokens: each number in shortest
// float64 form, each other run of characters as is; spaces and commas
// only separate. "M72.0,48.0 L72.0 100.0" and "M72 48L72 100" both
// become "M|72|48|L|72|100".
func normalize(v string) string {
	var toks []string
	for i := 0; i < len(v); {
		if strings.IndexByte(" ,\t\n", v[i]) >= 0 {
			i++
			continue
		}
		if n := numberLen(v[i:]); n > 0 {
			f, err := strconv.ParseFloat(v[i:i+n], 64)
			if err != nil {
				panic(err)
			}
			toks = append(toks, strconv.FormatFloat(f, 'g', -1, 64))
			i += n
			continue
		}
		j := i + 1
		for j < len(v) && strings.IndexByte(" ,\t\n", v[j]) < 0 && numberLen(v[j:]) == 0 {
			j++
		}
		toks = append(toks, v[i:j])
		i = j
	}
	return strings.Join(toks, "|")
}

// svgElements parses doc and reduces every element to an svgElem. A
// property's effective value is the element's own attribute, else
// the nearest ancestor's, else the initial value. stroke-width and
// stroke-dasharray are kept only where the effective stroke is not
// none, font properties only on <text>.
func svgElements(doc string) ([]svgElem, error) {
	d := xml.NewDecoder(strings.NewReader(doc))
	var out []svgElem
	var open []int                    // indices into out of the open elements
	var inherited []map[string]string // effective properties of the open elements
	for {
		tok, err := d.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			own := map[string]string{}
			geom := map[string]string{}
			for _, a := range tok.Attr {
				_, presentation := initialValues[a.Name.Local]
				switch {
				case a.Name.Local == "xmlns" || a.Name.Space == "xmlns":
				case presentation:
					own[a.Name.Local] = a.Value
				default:
					geom[a.Name.Local] = a.Value
				}
			}
			name := tok.Name.Local
			if name == "line" {
				name = "path"
				geom["d"] = "M" + geom["x1"] + " " + geom["y1"] + "L" + geom["x2"] + " " + geom["y2"]
				delete(geom, "x1")
				delete(geom, "y1")
				delete(geom, "x2")
				delete(geom, "y2")
			}
			eff := map[string]string{}
			for k, v := range initialValues {
				if o, ok := own[k]; ok {
					eff[k] = o
				} else if len(inherited) > 0 {
					eff[k] = inherited[len(inherited)-1][k]
				} else {
					eff[k] = v
				}
			}
			props := map[string]string{}
			for k, v := range geom {
				props[k] = normalize(v)
			}
			for k, v := range eff {
				switch {
				case (k == "stroke-width" || k == "stroke-dasharray") && eff["stroke"] == "none":
				case strings.HasPrefix(k, "font-") || k == "text-anchor":
					if name == "text" {
						props[k] = normalize(v)
					}
				default:
					props[k] = normalize(v)
				}
			}
			open = append(open, len(out))
			inherited = append(inherited, eff)
			out = append(out, svgElem{name: name, depth: len(open), props: props})
		case xml.EndElement:
			open = open[:len(open)-1]
			inherited = inherited[:len(inherited)-1]
		case xml.CharData:
			if len(open) > 0 {
				out[open[len(open)-1]].text += string(tok)
			}
		}
	}
	for i := range out {
		if out[i].name != "text" {
			out[i].text = strings.TrimSpace(out[i].text)
		}
	}
	return out, nil
}

// sameDrawing fails t unless want and got draw the same elements in
// the same order with the same geometry, effective properties and
// text.
func sameDrawing(t *testing.T, what, want, got string) {
	t.Helper()
	we, err := svgElements(want)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	ge, err := svgElements(got)
	if err != nil {
		t.Fatalf("%s: compact: %v", what, err)
	}
	for i := 0; i < len(we) && i < len(ge); i++ {
		w, g := we[i], ge[i]
		if w.name != g.name || w.depth != g.depth || w.text != g.text || !maps.Equal(w.props, g.props) {
			t.Fatalf("%s: element %d differs\nreference %v\n  compact %v", what, i, w, g)
		}
	}
	if len(we) != len(ge) {
		t.Fatalf("%s: %d elements in the reference, %d compact", what, len(we), len(ge))
	}
}

// qft3Frames renders the frames of stepping QFT(3) with writer frame,
// captioned as dddraw -animate captions them.
func qft3Frames(t *testing.T, frame func(*Graph, Style, string) string, style Style) []string {
	t.Helper()
	s := sim.New(algorithms.QFT(3), sim.WithSeed(1))
	frames := []string{frame(FromVector(s.State()), style, "initial state")}
	for !s.AtEnd() {
		ev, err := s.StepForward()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame(FromVector(s.State()), style, fmt.Sprintf("op %d: %s", ev.OpIndex, ev.Op)))
	}
	return frames
}

// TestCompactSVGEquivalent checks that the compact writer draws what
// the legacy writer drew, on the whole golden corpus, the color wheel
// and the elements inside an animation of the QFT(3) frames.
func TestCompactSVGEquivalent(t *testing.T) {
	for gi, g := range goldenGraphs(t) {
		for _, st := range allStyles() {
			for _, caption := range []string{"", goldenCaption} {
				what := fmt.Sprintf("graph %d, style %+v, caption %q", gi, st, caption)
				sameDrawing(t, what, legacyFrameSVG(g, st, caption), FrameSVG(g, st, caption))
			}
		}
	}
	for _, size := range []int{160, 200} {
		sameDrawing(t, fmt.Sprintf("color wheel %d", size), legacyColorWheelSVG(size), ColorWheelSVG(size))
	}
	for _, st := range allStyles() {
		want, err := AnimationSVG(qft3Frames(t, legacyFrameSVG, st), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AnimationSVG(qft3Frames(t, FrameSVG, st), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		sameDrawing(t, fmt.Sprintf("QFT(3) animation, style %+v", st), want, got)
	}
}

// wellFormed decodes doc with encoding/xml to its end.
func wellFormed(doc string) error {
	d := xml.NewDecoder(strings.NewReader(doc))
	for {
		if _, err := d.Token(); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// TestSVGWellFormed decodes every SVG of the golden corpus, the color
// wheel and an animation as XML.
func TestSVGWellFormed(t *testing.T) {
	for gi, g := range goldenGraphs(t) {
		for _, st := range allStyles() {
			for _, caption := range []string{"", goldenCaption} {
				if err := wellFormed(FrameSVG(g, st, caption)); err != nil {
					t.Fatalf("graph %d, style %+v, caption %q: %v", gi, st, caption, err)
				}
			}
		}
	}
	if err := wellFormed(ColorWheelSVG(160)); err != nil {
		t.Fatalf("color wheel: %v", err)
	}
	anim, err := AnimationSVG(qft3Frames(t, FrameSVG, Style{Mode: Modern}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := wellFormed(anim); err != nil {
		t.Fatalf("animation: %v", err)
	}
}

// xmlText reports whether s consists of characters XML 1.0 allows, so
// that escaping it yields well-formed text content. Control bytes and
// invalid UTF-8 have no representation in XML; the writer copies them
// through unchanged.
func xmlText(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		switch {
		case r == '\t' || r == '\n' || r == '\r':
		case r < 0x20, r >= 0xD800 && r < 0xE000, r == 0xFFFE, r == 0xFFFF:
			return false
		}
	}
	return true
}

// TestSVGSizeEstimate checks svgSize against every frame of the golden
// corpus: at least the actual size for 90 % of them or more, and never
// more than 1.3 times it.
func TestSVGSizeEstimate(t *testing.T) {
	frames, covered, worst := 0, 0, 0.0
	for gi, g := range goldenGraphs(t) {
		for _, st := range allStyles() {
			for _, caption := range []string{"", goldenCaption} {
				est, got := g.svgSize(st, caption), len(FrameSVG(g, st, caption))
				ratio := float64(est) / float64(got)
				if ratio > 1.3 {
					t.Fatalf("graph %d, style %+v, caption %q: estimate %d B for %d B", gi, st, caption, est, got)
				}
				worst = max(worst, ratio)
				frames++
				if est >= got {
					covered++
				}
			}
		}
	}
	t.Logf("estimate covers %d of %d frames, at most %.2f times the size", covered, frames, worst)
	if covered*10 < frames*9 {
		t.Fatalf("estimate covers only %d of %d frames", covered, frames)
	}
}
