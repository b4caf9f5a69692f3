// Quickstart: build the Bell circuit of Fig. 1(c), simulate it on
// decision diagrams, inspect the diagram (Ex. 6), sample measurement
// outcomes, and render the DD as SVG.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/cmplx"
	"math/rand"
	"os"

	"quantumdd/internal/cnum"
	"quantumdd/internal/dd"
	"quantumdd/internal/sim"
	"quantumdd/internal/vis"
	"quantumdd/internal/web"
)

func main() {
	// Circuits load from OpenQASM (or .real) — the same sources the
	// web tool's algorithm box accepts.
	circ, err := web.ParseCircuit(`
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[1];
cx q[1],q[0];
`, "qasm")
	if err != nil {
		log.Fatal(err)
	}

	// Simulate: the state is a decision diagram, never a 2^n vector.
	_, state, pkg, err := sim.Run(circ, 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Bell state 1/√2(|00⟩+|11⟩):")
	fmt.Printf("  decision diagram size: %d nodes (Ex. 6 reports 3)\n", dd.SizeV(state))
	for idx := int64(0); idx < 4; idx++ {
		a := dd.Amplitude(state, idx)
		if cmplx.Abs(a) < 1e-12 {
			continue
		}
		fmt.Printf("  amplitude |%02b⟩ = %s\n", idx, cnum.FormatComplex(a))
	}

	// Weak simulation: sample without collapsing the diagram.
	counts := dd.SampleCounts(state, 1000, rand.New(rand.NewSource(7)))
	fmt.Printf("  1000 samples: |00⟩ %d times, |11⟩ %d times\n", counts[0], counts[3])

	// Probabilities per qubit (what the measurement dialog shows).
	fmt.Printf("  P(q0=1) = %.3f, P(q1=1) = %.3f\n",
		pkg.ProbOne(state, 0), pkg.ProbOne(state, 1))

	// Render the diagram in the paper's classic style.
	svg := vis.FromVector(state).SVG(vis.Style{Mode: vis.Classic})
	if err := os.WriteFile("bell_dd.svg", []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  wrote bell_dd.svg (classic style, Fig. 2(a))")
}
