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
const goldenSVGDigest = "d5ed37485e905461f9d5fa3b0edac67b19ba4f4984e00be40704d6e6bde865a9"

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

// writeGoldenSVG renders every vector frame of every golden circuit,
// stepped from |0…0⟩ to the end, plus each circuit's functionality
// where it has one, in all three modes with labels defaulted, forced
// on and forced off, bare and with an escaped caption.
func writeGoldenSVG(t testing.TB, w io.Writer) {
	t.Helper()
	on, off := true, false
	var styles []Style
	for _, m := range []Mode{Classic, Colored, Modern} {
		for _, l := range []*bool{nil, &on, &off} {
			styles = append(styles, Style{Mode: m, ShowEdgeLabels: l})
		}
	}
	render := func(g *Graph) {
		for _, st := range styles {
			io.WriteString(w, g.SVG(st))
			io.WriteString(w, FrameSVG(g, st, "after <h> & \"cx\" q[1],q[0]"))
		}
	}
	render(FromVector(dd.VZero()))
	for _, c := range goldenCircuits() {
		s := sim.New(c, sim.WithSeed(1))
		render(FromVector(s.State()))
		for !s.AtEnd() {
			if _, err := s.StepForward(); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			render(FromVector(s.State()))
		}
		if c.HasNonUnitary() {
			continue
		}
		u, _, err := verify.BuildFunctionality(dd.New(c.NQubits), c)
		if err != nil {
			t.Fatalf("%s functionality: %v", c.Name, err)
		}
		render(FromMatrix(u))
	}
	io.WriteString(w, ColorWheelSVG(160))
}

func TestSVGGoldenDigest(t *testing.T) {
	h := sha256.New()
	writeGoldenSVG(t, h)
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSVGDigest {
		t.Fatalf("SVG digest = %s, want %s", got, goldenSVGDigest)
	}
}
