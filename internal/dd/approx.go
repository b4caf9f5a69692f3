package dd

import "fmt"

// Approximation by branch pruning: remove sub-trees whose probability
// contribution lies below a threshold and renormalize. This trades
// fidelity for diagram size — the standard counter-measure when the
// "exponential worst case" of Sec. III hits during simulation (cf. the
// approximation features of the DDSIM family). The exact fidelity
// |⟨ψ|ψ̃⟩|² between original and approximation is returned, so callers
// control the error budget precisely.

// Approximate prunes every edge whose branch probability (the squared
// magnitude of its weight within the normalized diagram, accumulated
// down from the root) is below threshold. It returns the renormalized
// approximation, the exact fidelity to the original, and the node
// counts before and after.
func (p *Pkg) Approximate(e VEdge, threshold float64) (approx VEdge, fidelity float64, before, after int) {
	if threshold < 0 || threshold >= 1 {
		panic(fmt.Sprintf("dd: approximation threshold must be in [0,1), got %g", threshold))
	}
	if p.vnorm != NormL2 {
		panic("dd: Approximate requires 2-norm vector normalization")
	}
	before = SizeV(e)
	if e.IsZero() || threshold == 0 {
		return e, 1, before, before
	}
	memo := map[approxKey]VEdge{}
	pruned := p.approximate(e.N, 1.0, threshold, memo)
	if pruned.IsZero() {
		return VZero(), 0, before, 0
	}
	// Renormalize to the original norm, preserving the root phase.
	scale := Norm(e) / Norm(VEdge{W: e.W * pruned.W, N: pruned.N})
	approx = p.rootV(VEdge{W: e.W * pruned.W * complex(scale, 0), N: pruned.N})
	fid := p.InnerProduct(e, approx)
	norm := Norm(e)
	fidelity = real(fid)*real(fid) + imag(fid)*imag(fid)
	if norm > 0 {
		fidelity /= norm * norm * norm * norm // normalize both sides
	}
	after = SizeV(approx)
	return approx, fidelity, before, after
}

type approxKey struct {
	n *VNode
	// pathProb is discretized so the memo can hit; pruning decisions
	// within the same bucket coincide.
	bucket int64
}

func (p *Pkg) approximate(n *VNode, pathProb, threshold float64, memo map[approxKey]VEdge) VEdge {
	if n == vTerminal {
		return VOne()
	}
	key := approxKey{n: n, bucket: int64(pathProb / threshold)}
	if r, ok := memo[key]; ok {
		return r
	}
	var kids [2]VEdge
	for i, c := range n.E {
		w2 := real(c.W)*real(c.W) + imag(c.W)*imag(c.W)
		if w2 == 0 || pathProb*w2 < threshold {
			kids[i] = VZero()
			continue
		}
		sub := p.approximate(c.N, pathProb*w2, threshold, memo)
		kids[i] = VEdge{W: c.W * sub.W, N: sub.N}
	}
	r := p.makeVNode(n.V, kids)
	memo[key] = r
	return r
}
