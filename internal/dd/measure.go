package dd

// Measurement (Sec. III-B, IV-B): branch probabilities read off the
// 2-norm-normalized edge weights, sampling by one root-to-terminal
// walk, and the state updates of the tool's measurement and reset
// dialogs.
//
// Measurement and reset are projections through the gate kernel
// (applygate.go), not walks of their own: the 2×2 matrix |to⟩⟨from|
// applied to qubit q keeps the from-branch of every node at q's level
// and moves it to the to-branch, the other branch becoming a zero
// stub. Collapse applies |o⟩⟨o|; ResetTo applies |0⟩⟨o|, which
// collapses and re-initializes in one pass. Both run under the node
// budget on the kernel's compute tables, like every gate, and stay
// unobserved: the observer sees the gates of a circuit, not the
// dialogs between them. Picking the outcome is the caller's part.

import (
	"fmt"
	"math"
	"math/rand"
)

// checkProb panics unless e is a state ProbOne can measure.
func (p *Pkg) checkProb(e VEdge) {
	if p.vnorm != NormL2 {
		panic("dd: ProbOne requires 2-norm vector normalization (see NormScheme)")
	}
	if Norm(e) == 0 {
		panic("dd: cannot measure the zero vector")
	}
}

// ProbOne returns the probability of measuring qubit q as |1⟩ in the
// state e. Thanks to the 2-norm normalization the squared edge-weight
// magnitudes at each node are the branch probabilities (Sec. III-B),
// so one bottom-up pass over the walk suffices: the root weight
// cancels out of the conditional probabilities, and every node's
// sub-vector has unit norm.
func (p *Pkg) ProbOne(e VEdge, q int) float64 {
	p.checkOpen()
	if q < 0 || q >= p.nqubits {
		panic(fmt.Sprintf("dd: qubit %d out of range [0,%d)", q, p.nqubits))
	}
	p.checkProb(e)
	f := FlattenV(e)
	r := f.probOne(q)
	f.Release()
	return r
}

// Probabilities returns the per-qubit probability of measuring |1⟩
// for every qubit, as shown in the tool's measurement dialogs.
func (p *Pkg) Probabilities(e VEdge) []float64 {
	p.checkOpen()
	f := FlattenV(e)
	out := p.FlatProbabilities(f)
	f.Release()
	return out
}

// FlatProbabilities is Probabilities over a listing already taken, one
// pass per qubit.
func (p *Pkg) FlatProbabilities(f *FlatV) []float64 {
	p.checkOpen()
	out := make([]float64, p.nqubits)
	if len(out) > 0 {
		p.checkProb(f.Root)
	}
	for q := range out {
		out[q] = f.probOne(q)
	}
	return out
}

// Collapse projects the state onto the subspace where qubit q has the
// given outcome and renormalizes, implementing the irreversible state
// collapse of the tool's measurement dialog (Fig. 8(c)→(d)). Under a
// node budget it returns a *ResourceError instead of growing the
// tables past MaxNodes, leaving e intact.
func (p *Pkg) Collapse(e VEdge, q int, outcome int) (VEdge, error) {
	return p.project(e, q, outcome, outcome)
}

// ResetTo deterministically collapses qubit q to the given pre-reset
// outcome and re-initializes it to |0⟩ (Sec. IV-B: the surviving
// branch becomes the |0⟩ branch), under the node budget as Collapse.
func (p *Pkg) ResetTo(e VEdge, q, outcome int) (VEdge, error) {
	return p.project(e, q, outcome, 0)
}

// project applies |to⟩⟨from| to qubit q of e under the node budget and
// rescales the result to e's norm and root phase.
func (p *Pkg) project(e VEdge, q, from, to int) (VEdge, error) {
	if from != 0 && from != 1 {
		return VZero(), fmt.Errorf("dd: measurement outcome must be 0 or 1, got %d", from)
	}
	if e.IsZero() {
		return VZero(), fmt.Errorf("dd: cannot collapse the zero vector")
	}
	notSwept(e.N.V)
	var u GateMatrix
	u[2*to+from] = 1
	g := p.internGate(u, q, nil)
	p.IncRefV(e)
	defer p.DecRefV(e)
	var res VEdge
	if err := p.checked(func() { res = p.applyGate(VEdge{W: 1, N: e.N}, g) }); err != nil {
		return VZero(), err
	}
	if res.IsZero() {
		return VZero(), fmt.Errorf("dd: outcome %d for qubit %d has probability zero", from, q)
	}
	// The projection shrank the norm by sqrt(prob); rescale so the
	// result keeps the original norm, and carry over the original root
	// phase.
	scale := Norm(e) / Norm(res)
	phase := e.W / complex(Norm(e), 0)
	return p.rootV(VEdge{W: res.W * complex(scale, 0) * phase, N: res.N}), nil
}

// Sample draws a basis state from the Born distribution of e by a
// single randomized root-to-terminal traversal (Hillmich et al.,
// DAC 2020). Sampling is non-destructive: the diagram is unchanged
// and repeated calls resample the same state (Sec. III-B).
func Sample(e VEdge, rng *rand.Rand) int64 {
	var idx int64
	n := e.N
	for n != vTerminal {
		w := n.E[1].W
		p1 := real(w)*real(w) + imag(w)*imag(w)
		if rng.Float64() < p1 {
			idx |= 1 << uint(n.V)
			n = n.E[1].N
		} else {
			n = n.E[0].N
		}
	}
	return idx
}

// SampleCounts draws shots samples and tallies them per basis state —
// the weak-simulation read-out.
func SampleCounts(e VEdge, shots int, rng *rand.Rand) map[int64]int {
	counts := make(map[int64]int)
	for i := 0; i < shots; i++ {
		counts[Sample(e, rng)]++
	}
	return counts
}

// nearlyOne reports |x-1| <= tol; helper for validity checks.
func nearlyOne(x, tol float64) bool { return math.Abs(x-1) <= tol }

// CheckUnitVector verifies that e represents a normalized state, i.e.
// its 2-norm is 1 within a loose tolerance. Useful as a test invariant.
func (p *Pkg) CheckUnitVector(e VEdge) error {
	if !nearlyOne(Norm(e), 1e-6) {
		return fmt.Errorf("dd: state norm %g deviates from 1", Norm(e))
	}
	return nil
}
