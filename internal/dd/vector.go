package dd

import (
	"fmt"
	"math/cmplx"
)

// ZeroState returns the decision diagram of the all-zero basis state
// |0…0⟩ over all qubits of the package.
func (p *Pkg) ZeroState() VEdge {
	e := VOne()
	for v := 0; v < p.nqubits; v++ {
		e = p.makeVNode(v, [2]VEdge{e, VZero()})
	}
	return e
}

// BasisState returns the DD of the computational basis state |i⟩,
// where bit q of index selects the branch of qubit q (big-endian
// |q_{n-1}…q_0⟩, so index 0b10 on two qubits is |10⟩).
func (p *Pkg) BasisState(index int64) VEdge {
	if index < 0 || index >= int64(1)<<uint(p.nqubits) {
		panic(fmt.Sprintf("dd: basis state %d out of range for %d qubits", index, p.nqubits))
	}
	e := VOne()
	for v := 0; v < p.nqubits; v++ {
		if index>>uint(v)&1 == 0 {
			e = p.makeVNode(v, [2]VEdge{e, VZero()})
		} else {
			e = p.makeVNode(v, [2]VEdge{VZero(), e})
		}
	}
	return e
}

// FromVector builds the DD of an arbitrary state vector of length 2^n
// by the recursive halving of Sec. III-A of the paper. The vector need
// not be normalized; the root weight absorbs the norm.
func (p *Pkg) FromVector(amps []complex128) (VEdge, error) {
	if len(amps) != 1<<uint(p.nqubits) {
		return VZero(), fmt.Errorf("dd: vector length %d does not match %d qubits (want %d)", len(amps), p.nqubits, 1<<uint(p.nqubits))
	}
	return p.rootV(p.fromVector(amps, p.nqubits-1)), nil
}

func (p *Pkg) fromVector(amps []complex128, v Var) VEdge {
	if len(amps) == 1 {
		return VEdge{W: amps[0], N: vTerminal}
	}
	half := len(amps) / 2
	lo := p.fromVector(amps[:half], v-1)
	hi := p.fromVector(amps[half:], v-1)
	return p.makeVNode(v, [2]VEdge{lo, hi})
}

// Amplitude reconstructs the amplitude ⟨index|e⟩ by multiplying the
// edge weights along the path selected by the index bits.
func Amplitude(e VEdge, index int64) complex128 {
	w := e.W
	n := e.N
	for n != vTerminal {
		if w == 0 {
			return 0
		}
		c := n.E[index>>uint(n.V)&1]
		w *= c.W
		n = c.N
	}
	return w
}

// Vector expands the diagram into a dense state vector of length 2^n.
// It is intended for tests and small visualization payloads; the
// expansion is exponential by nature.
func (p *Pkg) Vector(e VEdge) []complex128 {
	p.checkOpen()
	out := make([]complex128, 1<<uint(p.nqubits))
	fillVector(e.W, e.N, p.nqubits, 0, out)
	return out
}

func fillVector(w complex128, n *VNode, levels int, base int64, out []complex128) {
	if w == 0 {
		return
	}
	if n == vTerminal {
		out[base] = w
		return
	}
	notSwept(n.V)
	fillVector(w*n.E[0].W, n.E[0].N, levels-1, base, out)
	fillVector(w*n.E[1].W, n.E[1].N, levels-1, base|1<<uint(n.V), out)
}

// Norm returns the 2-norm of the represented vector. Thanks to the
// 2-norm normalization scheme every node's sub-vector is a unit
// vector, so the norm is simply the root weight's magnitude.
func Norm(e VEdge) float64 {
	if e.IsZero() {
		return 0
	}
	return cmplx.Abs(e.W)
}

// InnerProduct computes ⟨a|b⟩ recursively with memoization.
func (p *Pkg) InnerProduct(a, b VEdge) complex128 {
	if a.IsZero() || b.IsZero() {
		return 0
	}
	return p.innerProduct(a, b, p.nqubits)
}

type fidKey struct {
	a, b *VNode
}

func (p *Pkg) innerProduct(a, b VEdge, levels int) complex128 {
	w := cmplx.Conj(a.W) * b.W
	if w == 0 {
		return 0
	}
	if levels == 0 {
		return w
	}
	key := fidKey{a.N, b.N}
	h := hashFid(key)
	if r, ok := p.fidCache.lookup(h, key, p.gen); ok {
		return w * r
	}
	var sum complex128
	for i := 0; i < 2; i++ {
		ae := followV(a.N, i)
		be := followV(b.N, i)
		sum += p.innerProduct(VEdge{W: ae.W, N: ae.N}, VEdge{W: be.W, N: be.N}, levels-1)
	}
	p.fidCache.store(h, key, sum, p.gen)
	return w * sum
}

// followV returns branch i of n; for a zero stub (terminal reached
// early) it stays on the terminal with weight preserved so that the
// recursion depth stays aligned between operands.
func followV(n *VNode, i int) VEdge {
	if n == vTerminal {
		return VEdge{W: 1, N: vTerminal}
	}
	return n.E[i]
}

// Fidelity returns |⟨a|b⟩|² for unit vectors a and b.
func (p *Pkg) Fidelity(a, b VEdge) float64 {
	ip := p.InnerProduct(a, b)
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}
