package dd

import (
	"fmt"
	"math/rand"
	"testing"

	"quantumdd/internal/linalg"
)

// TestAddSameNodeMatchesDense adds every random 1–5-qubit vector and
// operator to itself under a second weight c·w: at a random c, at
// c = −1, and at c = −1 ± 1e-12, where the sum cancels to within the
// package tolerance. AddV and AddM must agree with the dense sum of
// the operands, a cancelled sum must be the zero edge on the
// terminal, and every returned root must already be canonical.
//
// A sum that does not cancel must match within 1e-12. A cancelled one
// leaves a dense residual of |1+c|·|w| times the node's entries, about
// 1e-12·|w|; the zero edge must be within the package tolerance of it,
// the radius inside which addition flushes a sum to zero.
func TestAddSameNodeMatchesDense(t *testing.T) {
	const tol = 1e-12
	for n := 1; n <= 5; n++ {
		for round := 0; round < 4; round++ {
			rng := rand.New(rand.NewSource(int64(300 + 10*n + round)))
			p := New(n)
			a := randState(t, p, rng, n)
			m := randMatrixDD(t, p, rng, n)
			for _, k := range []struct {
				c       complex128
				cancels bool
			}{
				{complex(rng.NormFloat64(), rng.NormFloat64()), false},
				{-1, true},
				{-1 + 1e-12, true},
				{-1 - 1e-12, true},
			} {
				c, cancels := k.c, k.cancels
				op := fmt.Sprintf("n=%d round=%d c=%v", n, round, c)

				b := VEdge{W: c * a.W, N: a.N}
				sum := p.AddV(a, b)
				checkRoot(t, p, "AddV "+op, sum.W, sum.N == vTerminal)
				da, db := p.Vector(a), p.Vector(b)
				want := make(linalg.Vector, len(da))
				for i := range want {
					want[i] = da[i] + db[i]
				}
				bound := tol
				if cancels {
					if !sum.IsZero() {
						t.Fatalf("AddV %s: %+v, want the zero edge", op, sum)
					}
					bound = p.Tolerance()
				}
				if got := linalg.Vector(p.Vector(sum)); !linalg.EqualVec(got, want, bound) {
					t.Fatalf("AddV %s: DD sum differs from the dense sum by more than %g", op, bound)
				}

				mb := MEdge{W: c * m.W, N: m.N}
				msum := p.AddM(m, mb)
				checkRoot(t, p, "AddM "+op, msum.W, msum.N == mTerminal)
				wantM := denseM(p, m)
				for i, x := range denseM(p, mb).Data {
					wantM.Data[i] += x
				}
				bound = tol
				if cancels {
					if !msum.IsZero() {
						t.Fatalf("AddM %s: %+v, want the zero edge", op, msum)
					}
					bound = p.Tolerance()
				}
				if got := denseM(p, msum); !linalg.Equal(got, wantM, bound) {
					t.Fatalf("AddM %s: DD sum differs from the dense sum by more than %g", op, bound)
				}
			}
		}
	}
}

// denseM flattens the operator e into a dense linalg matrix.
func denseM(p *Pkg, e MEdge) linalg.Matrix {
	rows := p.Matrix(e)
	out := linalg.NewMatrix(len(rows))
	for i, row := range rows {
		copy(out.Data[i*out.N:], row)
	}
	return out
}
