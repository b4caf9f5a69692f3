package web

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/linalg"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
)

// oracleTol bounds the distance of every DD amplitude from the dense
// internal/linalg baseline.
const oracleTol = 1e-9

// denseRun applies the gates of a unitary circuit to the dense state
// |0…0⟩, SWAPs as their CNOT triple. Barriers are skipped; any other
// non-unitary op fails the test.
func denseRun(t *testing.T, c *qc.Circuit) linalg.Vector {
	t.Helper()
	v := linalg.ZeroState(c.NQubits)
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Kind == qc.KindBarrier {
			continue
		}
		if !op.IsUnitary() {
			t.Fatalf("%s: dense oracle does not support %s", c.Name, op)
		}
		var pos, neg []int
		for _, ctl := range op.Controls {
			if ctl.Neg {
				neg = append(neg, ctl.Qubit)
			} else {
				pos = append(pos, ctl.Qubit)
			}
		}
		if op.Gate == qc.Swap {
			a, b := op.Targets[0], op.Targets[1]
			x := qc.Matrix2(qc.X, nil)
			linalg.ApplyControlledGate(v, x, b, append(append([]int{}, pos...), a), neg)
			linalg.ApplyControlledGate(v, x, a, append(append([]int{}, pos...), b), neg)
			linalg.ApplyControlledGate(v, x, b, append(append([]int{}, pos...), a), neg)
			continue
		}
		linalg.ApplyControlledGate(v, qc.Matrix2(op.Gate, op.Params), op.Targets[0], pos, neg)
	}
	return v
}

// unitaryOnly reports whether every op of c is a gate without a
// classical condition, or a barrier.
func unitaryOnly(c *qc.Circuit) bool {
	for i := range c.Ops {
		if op := &c.Ops[i]; op.Kind != qc.KindBarrier && !op.IsUnitary() {
			return false
		}
	}
	return true
}

// withBasisInput prefixes c with X gates preparing a seeded basis
// state, as the batch benchmark feeds QFT and the adder.
func withBasisInput(c *qc.Circuit, rng *rand.Rand) *qc.Circuit {
	out := qc.New(c.NQubits, c.NClbits)
	out.Name = c.Name
	for q := 0; q < c.NQubits; q++ {
		if rng.Intn(2) == 1 {
			out.X(q)
		}
	}
	out.Ops = append(out.Ops, c.Ops...)
	return out
}

// TestDenseOracleSim runs the circuits the benchmark workloads serve
// to the end and compares every final amplitude, global phase
// included, with the dense baseline: Grover(7), QFT(14) and Adder(6)
// on seeded basis inputs, QAOA MaxCut on ring(8), five random
// circuits, and every unitary built-in example as the server parses
// it.
func TestDenseOracleSim(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	qaoa, err := algorithms.QAOAMaxCut(algorithms.Ring(8), []float64{0.7}, []float64{0.3})
	if err != nil {
		t.Fatal(err)
	}
	circs := []*qc.Circuit{
		algorithms.Grover(7, uint64(rng.Intn(1<<7))),
		withBasisInput(algorithms.QFT(14), rng),
		withBasisInput(algorithms.Adder(6), rng),
		qaoa,
	}
	for i := 0; i < 5; i++ {
		circs = append(circs, algorithms.RandomCircuit(8, 12, rng.Int63()))
	}
	examples := 0
	for _, ex := range Examples() {
		c, err := ParseCircuit(ex.Code, "")
		if err != nil {
			t.Fatalf("%s: %v", ex.Name, err)
		}
		if unitaryOnly(c) {
			c.Name = ex.Name
			circs = append(circs, c)
			examples++
		}
	}
	if examples < 5 {
		t.Fatalf("only %d unitary built-in examples", examples)
	}
	for _, c := range circs {
		s := sim.New(c, sim.WithSeed(1))
		if _, err := s.RunToEnd(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		got, want := s.Amplitudes(), denseRun(t, c)
		for i := range want {
			if d := cmplx.Abs(got[i] - want[i]); d > oracleTol {
				t.Fatalf("%s: amplitude %d is %v, dense %v (|Δ| = %.3g)", c.Name, i, got[i], want[i], d)
			}
		}
	}
}
