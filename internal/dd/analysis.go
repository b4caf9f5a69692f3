package dd

import (
	"fmt"
	"math/cmplx"
)

// Analysis helpers over diagrams: traces, overlaps, expectation
// values, structural statistics, and dense-matrix import. These back
// the verification extensions and the tool's statistics panel.

// Trace computes tr(m), the sum of the diagonal entries, by a single
// recursive pass over the diagonal quadrants.
func (p *Pkg) Trace(m MEdge) complex128 {
	memo := make(map[*MNode]complex128)
	return p.trace(m, memo)
}

func (p *Pkg) trace(m MEdge, memo map[*MNode]complex128) complex128 {
	if m.W == 0 {
		return 0
	}
	if m.N == mTerminal {
		return m.W
	}
	if t, ok := memo[m.N]; ok {
		return m.W * t
	}
	t := p.trace(MEdge{W: m.N.E[0].W, N: m.N.E[0].N}, memo) +
		p.trace(MEdge{W: m.N.E[3].W, N: m.N.E[3].N}, memo)
	memo[m.N] = t
	return m.W * t
}

// HSOverlap computes the normalized Hilbert-Schmidt overlap
// |tr(a†·b)| / 2^n ∈ [0,1]; it equals 1 exactly when a and b agree up
// to a global phase. Used as a numeric second opinion next to the
// canonical root comparison.
func (p *Pkg) HSOverlap(a, b MEdge) float64 {
	t := p.Trace(p.adjointProduct(a, b))
	return cmplx.Abs(t) / float64(int64(1)<<uint(p.nqubits))
}

// adjointProduct computes a†·b.
func (p *Pkg) adjointProduct(a, b MEdge) MEdge {
	return p.MultMM(p.ConjTranspose(a), b)
}

// ExpectationZ returns ⟨ϕ|Z_q|ϕ⟩ = P(q=0) − P(q=1) for the unit state
// ϕ — the Bloch-sphere z-coordinate of qubit q.
func (p *Pkg) ExpectationZ(e VEdge, q int) float64 {
	return 1 - 2*p.ProbOne(e, q)
}

// SizeByLevelV histograms the distinct nodes of a vector diagram per
// qubit level (index = level). Feeds the statistics view: wide levels
// are where entanglement concentrates.
//
// It takes the plain visit, not the ordered walk: a histogram alone
// needs no listing, and the visit costs about half as much. A frame
// takes its histogram from the listing it already holds
// (FlatV.LevelHist).
func (p *Pkg) SizeByLevelV(e VEdge) []int {
	counts := make([]int, p.nqubits)
	visitV(e.N, func(n *VNode) { counts[n.V]++ })
	return counts
}

// SizeByLevelM histograms the distinct nodes of a matrix diagram per
// qubit level.
func (p *Pkg) SizeByLevelM(e MEdge) []int {
	counts := make([]int, p.nqubits)
	visitM(e.N, func(n *MNode) { counts[n.V]++ })
	return counts
}

// FromMatrix builds the diagram of an arbitrary 2^n×2^n matrix (given
// as row-major rows) by recursive quadrant decomposition — the matrix
// analogue of FromVector, used to import dense operators and in tests.
func (p *Pkg) FromMatrix(rows [][]complex128) (MEdge, error) {
	dim := 1 << uint(p.nqubits)
	if len(rows) != dim {
		return MZero(), fmt.Errorf("dd: matrix has %d rows, want %d", len(rows), dim)
	}
	for i, r := range rows {
		if len(r) != dim {
			return MZero(), fmt.Errorf("dd: row %d has %d entries, want %d", i, len(r), dim)
		}
	}
	return p.rootM(p.fromMatrix(rows, 0, 0, dim, p.nqubits-1)), nil
}

func (p *Pkg) fromMatrix(rows [][]complex128, r0, c0, size int, v Var) MEdge {
	if size == 1 {
		return MEdge{W: rows[r0][c0], N: mTerminal}
	}
	half := size / 2
	var e [4]MEdge
	e[0] = p.fromMatrix(rows, r0, c0, half, v-1)
	e[1] = p.fromMatrix(rows, r0, c0+half, half, v-1)
	e[2] = p.fromMatrix(rows, r0+half, c0, half, v-1)
	e[3] = p.fromMatrix(rows, r0+half, c0+half, half, v-1)
	return p.makeMNode(v, e)
}

// IsUnitaryDD checks tr(m†·m)/2^n ≈ 1 together with the Frobenius-norm
// invariance of a probe state — a cheap structural unitarity test that
// avoids densifying the operator.
func (p *Pkg) IsUnitaryDD(m MEdge) bool {
	return p.CheckIdentity(p.adjointProduct(m, m)) != NotIdentity
}

// PathCount returns the number of root-to-terminal paths with non-zero
// weight in a vector diagram — the number of basis states with
// (potentially) non-zero amplitude, computed without enumeration.
func PathCount(e VEdge) int64 {
	f := FlattenV(e)
	n := f.PathCount()
	f.Release()
	return n
}
