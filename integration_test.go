package quantumdd_test

// End-to-end integration tests over the shipped testdata circuits:
// files are loaded from disk exactly as a user would load them into
// the tool, simulated on decision diagrams, verified against reference
// constructions, and rendered.

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/cli"
	"quantumdd/internal/dd"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
	"quantumdd/internal/vis"
)

func TestGrover3FromDisk(t *testing.T) {
	circ, err := cli.LoadCircuitFile(filepath.Join("testdata", "grover3.qasm"), "")
	if err != nil {
		t.Fatal(err)
	}
	// Across seeds, the marked element |101⟩ dominates.
	hits := 0
	for seed := int64(0); seed < 20; seed++ {
		s := sim.New(circ, sim.WithSeed(seed))
		if _, err := s.RunToEnd(); err != nil {
			t.Fatal(err)
		}
		bits := s.Classical()
		if bits[0] == 1 && bits[1] == 0 && bits[2] == 1 {
			hits++
		}
	}
	if hits < 17 {
		t.Fatalf("Grover from disk found |101> only %d/20 times", hits)
	}
}

func TestTeleportFromDisk(t *testing.T) {
	circ, err := cli.LoadCircuitFile(filepath.Join("testdata", "teleport.qasm"), "")
	if err != nil {
		t.Fatal(err)
	}
	// Bob's qubit q0 must carry the payload u3(1.047…, 0.628…, 0)|0⟩
	// for every seed: P(q0=1) = sin²(θ/2) with θ = 1.0471…
	want := math.Sin(1.0471975511965976/2) * math.Sin(1.0471975511965976/2)
	for seed := int64(0); seed < 10; seed++ {
		s := sim.New(circ, sim.WithSeed(seed))
		if _, err := s.RunToEnd(); err != nil {
			t.Fatal(err)
		}
		if got := s.ProbOne(0); math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d: P(Bob=1) = %v, want %v", seed, got, want)
		}
	}
}

func TestToffoliChainFromDisk(t *testing.T) {
	circ, err := cli.LoadCircuitFile(filepath.Join("testdata", "toffoli_chain.real"), "")
	if err != nil {
		t.Fatal(err)
	}
	// The palindromic cascade mostly undoes itself; the expected output
	// basis state comes from an independent classical truth-table pass.
	s := sim.New(circ)
	if _, err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	amps := s.Amplitudes()
	idx := -1
	for i, a := range amps {
		if real(a) > 0.5 {
			idx = i
		}
	}
	want := toffoliChainTruth()
	if idx != want {
		t.Fatalf("toffoli chain from disk ended in |%04b>, want |%04b>", idx, want)
	}
}

// toffoliChainTruth evaluates the .real cascade classically.
func toffoliChainTruth() int {
	a, b, c, d := 0, 0, 0, 0
	a ^= 1
	b ^= a
	c ^= a & b
	d ^= a & b & c
	c ^= a & b
	b ^= a
	a ^= 1
	return a<<0 | b<<1 | c<<2 | d<<3
}

func TestQFT4WithIncludeFromDisk(t *testing.T) {
	circ, err := cli.LoadCircuitFile(filepath.Join("testdata", "qft4.qasm"), "")
	if err != nil {
		t.Fatal(err)
	}
	// The on-disk QFT (using an included helper gate) is equivalent to
	// the generated QFT(4).
	res, err := verify.Check(circ, algorithms.QFT(4), verify.Proportional)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("on-disk QFT4 not equivalent to the generator")
	}
	// And it renders.
	u, err := verify.Functionality(dd.New(circ.NQubits), circ)
	if err != nil {
		t.Fatal(err)
	}
	if got := dd.SizeM(u); got != 85 {
		t.Fatalf("QFT4 functionality has %d nodes, want 85 = (4^4-1)/3", got)
	}
	svg := vis.FromMatrix(u).SVG(vis.Style{Mode: vis.Colored})
	if !strings.Contains(svg, "<svg") {
		t.Fatal("render failed")
	}
}
