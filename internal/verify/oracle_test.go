package verify

import (
	"math/cmplx"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/linalg"
	"quantumdd/internal/qc"
)

// denseUnitary multiplies out a unitary circuit column by column: the
// k-th column is the circuit applied to the basis state |k⟩. SWAPs
// apply as their CNOT triple.
func denseUnitary(t *testing.T, c *qc.Circuit) [][]complex128 {
	t.Helper()
	dim := 1 << uint(c.NQubits)
	cols := make([][]complex128, dim)
	for k := range cols {
		v := make(linalg.Vector, dim)
		v[k] = 1
		for i := range c.Ops {
			op := &c.Ops[i]
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
		cols[k] = v
	}
	return cols
}

// TestDenseOracleFunctionality compares the functionality verify
// builds, entry by entry and global phase included, with the dense
// unitary, for the operators TestFunctionalityDigest pins except the
// 18-qubit adder.
func TestDenseOracleFunctionality(t *testing.T) {
	inv, err := algorithms.QFT(5).Inverse()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*qc.Circuit{
		lowerMCZ(algorithms.Grover(4, 0b1011)),
		lowerMCZ(algorithms.Grover(5, 0b10110)),
		algorithms.QFT(5),
		algorithms.RandomCircuit(7, 30, 3),
		inv,
	} {
		p := dd.New(c.NQubits)
		u, err := Functionality(p, c)
		if err != nil {
			t.Fatal(err)
		}
		got, cols := p.Matrix(u), denseUnitary(t, c)
		for r := range got {
			for k := range cols {
				if d := cmplx.Abs(got[r][k] - cols[k][r]); d > 1e-9 {
					t.Fatalf("%s: entry (%d,%d) is %v, dense %v (|Δ| = %.3g)", c.Name, r, k, got[r][k], cols[k][r], d)
				}
			}
		}
	}
}
