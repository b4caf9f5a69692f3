package vis

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
)

// goldenSVGDigest is the SHA-256 of everything writeGoldenSVG emits.
// It pins the SVG writer's exact bytes, so a change to number
// formatting, element order or escaping shows here. Update it only
// for an intended change of the rendered markup.
const goldenSVGDigest = "b373c54ed14c4fc430e6b42897aafc23f3efba146d22640b172f72232a5ea781"

// goldenCircuits are the constructors behind the web tool's built-in
// examples, called directly so the digest does not depend on the QASM
// round trip the examples go through.
func goldenCircuits() []*qc.Circuit {
	return []*qc.Circuit{
		algorithms.Bell(),
		algorithms.BellMeasured(),
		algorithms.GHZ(4),
		algorithms.WState(4),
		algorithms.QFT(3),
		algorithms.QFTCompiled(3),
		algorithms.Grover(3, 5),
		algorithms.BernsteinVazirani(4, 0b1011),
		algorithms.QPE(3, 3.0/8.0),
		algorithms.Teleport(1.2, 0.4),
	}
}

// goldenCaption is the caption the corpus renders every frame with,
// besides rendering it bare: it needs XML and JSON escaping.
const goldenCaption = "after <h> & \"cx\" q[1],q[0]"

// svgWriter is one SVG writer as the golden corpus drives it.
type svgWriter struct {
	frame func(g *Graph, style Style, caption string) string
	wheel func(size int) string
}

var compactWriter = svgWriter{frame: FrameSVG, wheel: ColorWheelSVG}

// goldenGraphs returns every vector frame of every golden circuit,
// stepped from |0…0⟩ to the end, plus each circuit's functionality
// where it has one, after the all-zero state.
func goldenGraphs(t testing.TB) []*Graph {
	t.Helper()
	graphs := []*Graph{FromVector(dd.VZero())}
	for _, c := range goldenCircuits() {
		s := sim.New(c, sim.WithSeed(1))
		graphs = append(graphs, FromVector(s.State()))
		for !s.AtEnd() {
			if _, err := s.StepForward(); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			graphs = append(graphs, FromVector(s.State()))
		}
		if c.HasNonUnitary() {
			continue
		}
		u, _, err := verify.BuildFunctionality(dd.New(c.NQubits), c)
		if err != nil {
			t.Fatalf("%s functionality: %v", c.Name, err)
		}
		graphs = append(graphs, FromMatrix(u))
	}
	return graphs
}

// writeGoldenSVG renders every golden graph with wr in all three
// modes with labels defaulted, forced on and forced off, bare and
// with goldenCaption, followed by the color wheel.
func writeGoldenSVG(t testing.TB, w io.Writer, wr svgWriter) {
	t.Helper()
	for _, g := range goldenGraphs(t) {
		for _, st := range allStyles() {
			io.WriteString(w, wr.frame(g, st, ""))
			io.WriteString(w, wr.frame(g, st, goldenCaption))
		}
	}
	io.WriteString(w, wr.wheel(160))
}

func TestSVGGoldenDigest(t *testing.T) {
	h := sha256.New()
	writeGoldenSVG(t, h, compactWriter)
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSVGDigest {
		t.Fatalf("SVG digest = %s, want %s", got, goldenSVGDigest)
	}
}
