package dd

import (
	"fmt"
	"math/rand"
	"testing"

	"quantumdd/internal/qc"
)

// TestApplySwapMatchesGateDD is the SWAP differential test: on a
// package shared by both paths, the kernel SWAP must return exactly the
// canonical root edge of MakeSwapDD followed by the generic multiply —
// MultMV for states, MultMM on either side for matrices — and so must
// the checked form and the circuit-op entries. It covers random states
// and matrices of 3–7 qubits, adjacent and distant pairs in both
// orders, and no, a positive and a negative control.
//
// Each case gets a fresh package. One that has interned the weights of
// dozens of dense random operators can resolve the two evaluation
// orders to different complex-table entries within the table's
// tolerance; single-gate ApplyGateML/MR against MakeGateDD+MultMM
// diverge the same way there.
func TestApplySwapMatchesGateDD(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cases := 0
	for n := 3; n <= 7; n++ {
		lo := rng.Intn(n - 1)
		for _, pair := range [][2]int{{lo, lo + 1}, {0, n - 1}} {
			var free []int
			for q := 0; q < n; q++ {
				if q != pair[0] && q != pair[1] {
					free = append(free, q)
				}
			}
			c := free[rng.Intn(len(free))]
			for _, ctl := range [][]Control{nil, {{Qubit: c}}, {{Qubit: c, Neg: true}}} {
				for _, ab := range [][2]int{pair, {pair[1], pair[0]}} {
					a, b := ab[0], ab[1]
					name := fmt.Sprintf("n=%d swap(%d,%d) ctl=%v", n, a, b, ctl)
					p := New(n)
					swap := p.MakeSwapDD(a, b, ctl...)
					op := &qc.Op{Kind: qc.KindGate, Gate: qc.Swap, Targets: []int{a, b}, Controls: ctl}

					v := randState(t, p, rng, n)
					want := p.MultMV(swap, v)
					if got := p.ApplySwap(v, a, b, ctl...); got != want {
						t.Fatalf("%s: ApplySwap %v != MultMV %v", name, got, want)
					}
					if got, err := p.ApplySwapChecked(v, a, b, ctl...); err != nil || got != want {
						t.Fatalf("%s: ApplySwapChecked %v, %v != MultMV %v", name, got, err, want)
					}
					if got, err := p.ApplyOp(v, op); err != nil || got != want {
						t.Fatalf("%s: ApplyOp %v, %v != MultMV %v", name, got, err, want)
					}

					m := randMatrixDD(t, p, rng, n)
					wantL, wantR := p.MultMM(swap, m), p.MultMM(m, swap)
					if got, err := p.ApplyOpML(m, op); err != nil || got != wantL {
						t.Fatalf("%s: ApplyOpML (%v,%p), %v != MultMM (%v,%p)", name, got.W, got.N, err, wantL.W, wantL.N)
					}
					if got, err := p.ApplyOpMR(m, op); err != nil || got != wantR {
						t.Fatalf("%s: ApplyOpMR (%v,%p), %v != MultMM (%v,%p)", name, got.W, got.N, err, wantR.W, wantR.N)
					}
					cases += 3
				}
			}
		}
	}
	if cases != 180 {
		t.Fatalf("covered %d cases, want 180", cases)
	}
}
