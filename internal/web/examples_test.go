package web

import (
	"math/cmplx"
	"strings"
	"testing"

	"quantumdd/internal/sim"
)

// TestExamplesRoundTrip checks that every built-in example parses back
// whole: no op is dropped as unsupported, and the op count matches the
// source circuit plus the two X gates that conjugate each negative
// control.
func TestExamplesRoundTrip(t *testing.T) {
	circs := exampleCircuits()
	for i, ex := range Examples() {
		if strings.Contains(ex.Code, "unsupported op") {
			t.Errorf("%s: serialized with an unsupported op:\n%s", ex.Name, ex.Code)
		}
		got, err := ParseCircuit(ex.Code, "")
		if err != nil {
			t.Errorf("%s: %v", ex.Name, err)
			continue
		}
		if i >= len(circs) {
			continue // the .real example has no source circuit
		}
		src := circs[i].circ
		want := len(src.Ops)
		for _, op := range src.Ops {
			for _, c := range op.Controls {
				if c.Neg {
					want += 2
				}
			}
		}
		if len(got.Ops) != want {
			t.Errorf("%s: %d ops after the round trip, want %d", ex.Name, len(got.Ops), want)
		}
	}
}

func TestGroverExampleFindsMarkedState(t *testing.T) {
	for _, ex := range Examples() {
		if ex.Name != "Grover (3 qubits)" {
			continue
		}
		circ, err := ParseCircuit(ex.Code, "")
		if err != nil {
			t.Fatal(err)
		}
		s := sim.New(circ)
		if _, err := s.RunToEnd(); err != nil {
			t.Fatal(err)
		}
		amp := s.Amplitudes()[0b101]
		if p := real(amp * cmplx.Conj(amp)); p <= 0.9 {
			t.Fatalf("P(|101>) = %.3f, want > 0.9", p)
		}
		return
	}
	t.Fatal("Grover example missing")
}
