package verify

import (
	"math/cmplx"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/linalg"
	"quantumdd/internal/qc"
)

// denseOperator multiplies out a unitary circuit column by column: the
// k-th column is the circuit applied to the basis state |k⟩. SWAPs
// apply as their CNOT triple; barriers are skipped.
func denseOperator(t *testing.T, c *qc.Circuit) linalg.Matrix {
	t.Helper()
	dim := 1 << uint(c.NQubits)
	m := linalg.NewMatrix(dim)
	for k := range dim {
		v := make(linalg.Vector, dim)
		v[k] = 1
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
		for r, a := range v {
			m.Set(r, k, a)
		}
	}
	return m
}

// denseRoot is the operator a check of (c1, c2) ends on: U of G for the
// construction strategy, G·G′⁻¹ for the alternating ones.
func denseRoot(t *testing.T, c1, c2 *qc.Circuit, s Strategy) linalg.Matrix {
	t.Helper()
	u1 := denseOperator(t, c1)
	if s == Construction {
		return u1
	}
	return linalg.Mul(u1, linalg.ConjTranspose(denseOperator(t, c2)))
}

// denseVerdict is the verdict the dense operators of c1 and c2 give:
// equal, or equal up to a global phase other than 1.
func denseVerdict(t *testing.T, c1, c2 *qc.Circuit) (equivalent, upToPhase bool) {
	t.Helper()
	u1, u2 := denseOperator(t, c1), denseOperator(t, c2)
	if linalg.Equal(u1, u2, 1e-9) {
		return true, false
	}
	eq := linalg.EqualUpToGlobalPhase(u1, u2, 1e-9)
	return eq, eq
}

// checkDense fails the test when an entry of the operator u on p is
// further than tol from want, global phase included.
func checkDense(t *testing.T, what string, p *dd.Pkg, u dd.MEdge, want linalg.Matrix, tol float64) {
	t.Helper()
	got := p.Matrix(u)
	for r := range got {
		for k := range got[r] {
			if d := cmplx.Abs(got[r][k] - want.At(r, k)); d > tol {
				t.Fatalf("%s: entry (%d,%d) is %v, dense %v (|Δ| = %.3g)", what, r, k, got[r][k], want.At(r, k), d)
			}
		}
	}
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
		checkDense(t, c.Name, p, u, denseOperator(t, c), 1e-9)
	}
}
