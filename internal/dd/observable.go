package dd

import (
	"fmt"
)

// Observables: expectation values of Pauli strings ⟨ϕ|P|ϕ⟩, the
// measurement quantities variational algorithms read off simulators.
// The operator is applied one Pauli at a time through the gate-apply
// kernel, followed by one inner product.

var (
	pauliX = GateMatrix{0, 1, 1, 0}
	pauliY = GateMatrix{0, complex(0, -1), complex(0, 1), 0}
	pauliZ = GateMatrix{1, 0, 0, -1}
)

// ExpectationPauli computes ⟨e|P|e⟩ for a Pauli string such as "XIZY".
// The string is big-endian like the paper's kets: its first character
// acts on the most significant qubit q_{n-1}. 'I' positions are
// skipped. The state must be normalized for the textbook reading.
func (p *Pkg) ExpectationPauli(e VEdge, pauli string) (float64, error) {
	if len(pauli) != p.nqubits {
		return 0, fmt.Errorf("dd: Pauli string %q has length %d, want %d", pauli, len(pauli), p.nqubits)
	}
	applied := e
	for i, r := range pauli {
		q := p.nqubits - 1 - i // big-endian string position → qubit
		var g GateMatrix
		switch r {
		case 'I', 'i':
			continue
		case 'X', 'x':
			g = pauliX
		case 'Y', 'y':
			g = pauliY
		case 'Z', 'z':
			g = pauliZ
		default:
			return 0, fmt.Errorf("dd: invalid Pauli letter %q in %q", r, pauli)
		}
		applied = p.ApplyGate(applied, g, q)
	}
	ip := p.InnerProduct(e, applied)
	// Pauli strings are Hermitian: the expectation is real. Guard the
	// numerics and return the real part.
	if im := imag(ip); im > 1e-9 || im < -1e-9 {
		return 0, fmt.Errorf("dd: non-real expectation %v (state not normalized?)", ip)
	}
	return real(ip), nil
}
