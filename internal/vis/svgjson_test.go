package vis

import (
	"bytes"
	"encoding/json"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
)

// quoteSVG is the reference for AppendFrameSVGJSON: FrameSVG encoded
// by encoding/json without HTML escaping, as the web layer encoded it.
func quoteSVG(t testing.TB, g *Graph, style Style, caption string) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(FrameSVG(g, style, caption)); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

func allStyles() []Style {
	on, off := true, false
	var styles []Style
	for _, m := range []Mode{Classic, Colored, Modern} {
		for _, l := range []*bool{nil, &on, &off} {
			styles = append(styles, Style{Mode: m, ShowEdgeLabels: l})
		}
	}
	return styles
}

func checkFrameSVGJSON(t testing.TB, g *Graph, style Style, caption string) {
	t.Helper()
	prefix := []byte(`{"svg":`)
	got := AppendFrameSVGJSON(append([]byte(nil), prefix...), g, style, caption)
	want := append(prefix, quoteSVG(t, g, style, caption)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("style %+v, caption %q: AppendFrameSVGJSON differs from the quoted FrameSVG\n got %s\nwant %s", style, caption, got, want)
	}
}

// fuzzGraphs are diagrams with weight labels, zero stubs, probability
// bars and matrix ports: the GHZ(3) and Teleport final states and the
// QFT(3) functionality.
func fuzzGraphs(t testing.TB) []*Graph {
	t.Helper()
	var out []*Graph
	for _, c := range []*sim.Simulator{
		sim.New(algorithms.GHZ(3), sim.WithSeed(1)),
		sim.New(algorithms.Teleport(1.2, 0.4), sim.WithSeed(1)),
	} {
		for !c.AtEnd() {
			if _, err := c.StepForward(); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, FromVector(c.State()))
	}
	u, _, err := verify.BuildFunctionality(dd.New(3), algorithms.QFT(3))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, FromMatrix(u))
}

// TestAppendFrameSVGJSONGolden checks the JSON form on every frame the
// SVG golden renders.
func TestAppendFrameSVGJSONGolden(t *testing.T) {
	for _, g := range goldenGraphs(t) {
		for _, st := range allStyles() {
			checkFrameSVGJSON(t, g, st, "")
			checkFrameSVGJSON(t, g, st, goldenCaption)
		}
	}
}

// FuzzFrameSVGJSON checks that AppendFrameSVGJSON equals the quoted
// FrameSVG for arbitrary captions and node labels (quotes, backslashes,
// markup characters, control bytes, invalid UTF-8, U+2028) in every
// style, and that FrameSVG is well-formed XML whenever the caption and
// label consist of characters XML allows.
func FuzzFrameSVGJSON(f *testing.F) {
	f.Add("after <h> & \"cx\" q[1],q[0]", "q1", uint8(0))
	f.Add("a\\b\x00\x1f\b\f\r\t\n", "\xff\xc3<q>", uint8(4))
	f.Add("\u2028\u2029 √2·π", "&amp;\"", uint8(8))
	f.Add("", "", uint8(2))
	f.Add("it's 'q' <\"x\">", "q'0", uint8(1))
	graphs := fuzzGraphs(f)
	styles := allStyles()
	f.Fuzz(func(t *testing.T, caption, label string, pick uint8) {
		g := graphs[int(pick)%len(graphs)]
		for i := range g.Nodes {
			if !g.Nodes[i].Terminal {
				g.Nodes[i].Label = label
			}
		}
		legal := xmlText(caption) && xmlText(label)
		for _, st := range styles {
			checkFrameSVGJSON(t, g, st, caption)
			if !legal {
				continue
			}
			if err := wellFormed(FrameSVG(g, st, caption)); err != nil {
				t.Fatalf("style %+v, caption %q, label %q: %v", st, caption, label, err)
			}
		}
	})
}
