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

// identityTol is how far CheckIdentity lets a weight sit from the
// identity's: the root weight from a unit phase, every other weight on
// the diagonal from one and off it from zero. Node creation snaps each
// weight to the complex table within the table's tolerance, so the
// product G·G′⁻¹ of two equivalent circuits can keep residues a little
// above it: checking a fuzzed 5-qubit circuit against itself
// sequentially left 1.13e-10 off the diagonal (the FuzzKernelDense
// seed sequential_residue). The MQT equivalence checker accepts at the
// same 1e-8.
const identityTol = 1e-8

// CheckIdentity classifies e against the identity diagram. Because
// diagrams are canonical this is usually a pointer comparison on the
// root plus a weight inspection (Sec. III-C: "comparing their root
// pointers"); a root that is not the identity node is accepted when
// its diagram is the identity up to residues (nearIdentity).
func (p *Pkg) CheckIdentity(e MEdge) IdentityKind {
	if e.N != p.Ident().N && (e.N == mTerminal || !nearIdentity(e.N)) {
		return NotIdentity
	}
	if cmplx.Abs(e.W-1) <= identityTol {
		return IdentityExact
	}
	if mag := cmplx.Abs(e.W); mag >= 1-identityTol && mag <= 1+identityTol {
		return IdentityUpToPhase
	}
	return NotIdentity
}

// nearIdentity reports whether every node reachable from root along
// the diagonal carries diagonal weights within identityTol of one and
// off-diagonal weights within identityTol of zero. Node weights are
// normalised to at most one in magnitude, so such a diagram differs
// from the identity by at most about identityTol per level in every
// entry.
func nearIdentity(root *MNode) bool {
	w := mWalkerPool.Get().(*mWalker)
	defer w.release()
	w.push(root)
	for len(w.stack) > 0 {
		n := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		if cmplx.Abs(n.E[0].W-1) > identityTol || cmplx.Abs(n.E[3].W-1) > identityTol ||
			cmplx.Abs(n.E[1].W) > identityTol || cmplx.Abs(n.E[2].W) > identityTol {
			return false
		}
		w.push(n.E[0].N)
		w.push(n.E[3].N)
	}
	return true
}
