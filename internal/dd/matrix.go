package dd

import (
	"math/cmplx"
)

// GateMatrix is a 2×2 unitary in row-major order: [U00, U01, U10, U11].
type GateMatrix [4]complex128

// Control describes a control line of a quantum operation. A positive
// control activates the gate when the qubit is |1⟩ (the • of circuit
// diagrams), a negative control when it is |0⟩.
type Control struct {
	Qubit int
	Neg   bool
}

// Ident returns the identity diagram over all qubits of the package —
// the starting point and target of the alternating equivalence-
// checking scheme (Ex. 12).
func (p *Pkg) Ident() MEdge { return p.identUpTo(p.nqubits - 1) }

// identUpTo builds the identity over levels 0..v inclusive.
func (p *Pkg) identUpTo(v Var) MEdge {
	e := MOne()
	for z := 0; z <= v; z++ {
		e = p.makeMNode(z, [4]MEdge{e, MZero(), MZero(), e})
	}
	return e
}

// MakeGateDD (the matrix lowering of a controlled single-qubit gate)
// lives in applygate.go next to the direct-application kernel: both
// share the interned gate descriptors, and MakeGateDD caches its
// result there per package generation.

// MatrixEntry reconstructs the matrix element ⟨row|e|col⟩.
func MatrixEntry(e MEdge, row, col int64) complex128 {
	w := e.W
	n := e.N
	for n != mTerminal {
		if w == 0 {
			return 0
		}
		i := row >> uint(n.V) & 1
		j := col >> uint(n.V) & 1
		c := n.E[2*i+j]
		w *= c.W
		n = c.N
	}
	return w
}

// Matrix expands the diagram into a dense 2^n×2^n matrix (row-major
// slices). Exponential; intended for tests and tiny examples.
func (p *Pkg) Matrix(e MEdge) [][]complex128 {
	dim := 1 << uint(p.nqubits)
	out := make([][]complex128, dim)
	for i := range out {
		out[i] = make([]complex128, dim)
	}
	fillMatrix(e.W, e.N, 0, 0, out)
	return out
}

func fillMatrix(w complex128, n *MNode, row, col int64, out [][]complex128) {
	if w == 0 {
		return
	}
	if n == mTerminal {
		out[row][col] = w
		return
	}
	for i := int64(0); i < 2; i++ {
		for j := int64(0); j < 2; j++ {
			c := n.E[2*i+j]
			fillMatrix(w*c.W, c.N, row|i<<uint(n.V), col|j<<uint(n.V), out)
		}
	}
}

// IdentityKind classifies how close a matrix diagram is to the
// identity, the acceptance criterion of DD-based verification.
type IdentityKind int

const (
	// NotIdentity: the diagram differs structurally from the identity.
	NotIdentity IdentityKind = iota
	// IdentityUpToPhase: identity times a unit-magnitude global phase.
	IdentityUpToPhase
	// IdentityExact: the identity with weight one.
	IdentityExact
)

// CheckIdentity classifies e against the identity diagram. Because
// diagrams are canonical this is a pointer comparison on the root plus
// a weight inspection (Sec. III-C: "comparing their root pointers").
func (p *Pkg) CheckIdentity(e MEdge) IdentityKind {
	if e.N != p.Ident().N {
		return NotIdentity
	}
	tol := p.cn.Tolerance()
	if cmplx.Abs(e.W-1) <= tol {
		return IdentityExact
	}
	if mag := cmplx.Abs(e.W); mag >= 1-tol && mag <= 1+tol {
		return IdentityUpToPhase
	}
	return NotIdentity
}
