package dd

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
// collapse of the tool's measurement dialog (Fig. 8(c)→(d)).
func (p *Pkg) Collapse(e VEdge, q int, outcome int) (VEdge, error) {
	if outcome != 0 && outcome != 1 {
		return VZero(), fmt.Errorf("dd: measurement outcome must be 0 or 1, got %d", outcome)
	}
	if e.IsZero() {
		return VZero(), fmt.Errorf("dd: cannot collapse the zero vector")
	}
	memo := make(map[*VNode]VEdge)
	collapsed := p.collapse(VEdge{W: 1, N: e.N}, q, outcome, memo)
	if collapsed.IsZero() {
		return VZero(), fmt.Errorf("dd: outcome %d for qubit %d has probability zero", outcome, q)
	}
	// Collapsing shrank the norm by sqrt(prob); rescale so the result
	// keeps the original norm, and carry over the original root phase.
	scale := Norm(e) / Norm(collapsed)
	phase := e.W / complex(Norm(e), 0)
	return p.rootV(VEdge{W: collapsed.W * complex(scale, 0) * phase, N: collapsed.N}), nil
}

func (p *Pkg) collapse(e VEdge, q, outcome int, memo map[*VNode]VEdge) VEdge {
	if e.IsZero() || e.N == vTerminal {
		return e
	}
	if res, ok := memo[e.N]; ok {
		return VEdge{W: res.W * e.W, N: res.N}
	}
	var res VEdge
	if e.N.V == q {
		var kids [2]VEdge
		kids[outcome] = e.N.E[outcome]
		kids[1-outcome] = VZero()
		res = p.makeVNode(e.N.V, kids)
	} else {
		var kids [2]VEdge
		for i := 0; i < 2; i++ {
			kids[i] = p.collapse(e.N.E[i], q, outcome, memo)
		}
		res = p.makeVNode(e.N.V, kids)
	}
	memo[e.N] = res
	return VEdge{W: res.W * e.W, N: res.N}
}

// Measure samples an outcome for qubit q using rng, collapses the
// state accordingly, and returns the outcome together with the branch
// probabilities that the tool would show in its dialog.
func (p *Pkg) Measure(e VEdge, q int, rng *rand.Rand) (outcome int, collapsed VEdge, p0, p1 float64, err error) {
	p1 = p.ProbOne(e, q)
	p0 = 1 - p1
	outcome = 0
	if rng.Float64() < p1 {
		outcome = 1
	}
	collapsed, err = p.Collapse(e, q, outcome)
	return outcome, collapsed, p0, p1, err
}

// ApplyX flips qubit q by swapping the two branches at its level —
// the local gate application used by Reset (cheaper than a full
// matrix-vector multiplication).
func (p *Pkg) ApplyX(e VEdge, q int) VEdge {
	memo := make(map[*VNode]VEdge)
	res := p.applyX(VEdge{W: 1, N: e.N}, q, memo)
	return p.rootV(VEdge{W: res.W * e.W, N: res.N})
}

func (p *Pkg) applyX(e VEdge, q int, memo map[*VNode]VEdge) VEdge {
	if e.IsZero() || e.N == vTerminal {
		return e
	}
	if res, ok := memo[e.N]; ok {
		return VEdge{W: res.W * e.W, N: res.N}
	}
	var res VEdge
	if e.N.V == q {
		res = p.makeVNode(e.N.V, [2]VEdge{e.N.E[1], e.N.E[0]})
	} else {
		var kids [2]VEdge
		for i := 0; i < 2; i++ {
			kids[i] = p.applyX(e.N.E[i], q, memo)
		}
		res = p.makeVNode(e.N.V, kids)
	}
	memo[e.N] = res
	return VEdge{W: res.W * e.W, N: res.N}
}

// Reset collapses qubit q to the sampled outcome and re-initializes it
// to |0⟩ (Sec. IV-B: the surviving branch becomes the |0⟩ branch).
// The sampled pre-reset value and the branch probabilities are
// returned for the tool's dialog.
func (p *Pkg) Reset(e VEdge, q int, rng *rand.Rand) (pre int, res VEdge, p0, p1 float64, err error) {
	pre, res, p0, p1, err = p.Measure(e, q, rng)
	if err != nil {
		return pre, res, p0, p1, err
	}
	if pre == 1 {
		res = p.ApplyX(res, q)
	}
	return pre, res, p0, p1, nil
}

// ResetTo deterministically collapses qubit q to the given pre-reset
// outcome and re-initializes it to |0⟩ (the forced-choice path of the
// tool's reset dialog).
func (p *Pkg) ResetTo(e VEdge, q, outcome int) (VEdge, error) {
	res, err := p.Collapse(e, q, outcome)
	if err != nil {
		return VZero(), err
	}
	if outcome == 1 {
		res = p.ApplyX(res, q)
	}
	return res, nil
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
