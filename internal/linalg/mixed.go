package linalg

import "fmt"

// MaxMixedQubits bounds a Mixed state: each classical record holds a
// dense 4^n-entry density matrix, so the reference stays small.
const MaxMixedQubits = 4

// Mixed is the dense reference for noisy simulation: a
// classical-quantum state holding one unnormalised density matrix per
// classical record, whose trace is the probability of that record.
// Bit b of a record is classical bit b (an unwritten bit reads 0). A
// measurement splits every record by its outcome, so a classically
// controlled gate acts on exactly the records that satisfy its
// condition.
type Mixed struct {
	n     int
	parts map[uint64]Matrix
}

// NewMixed returns |0…0⟩⟨0…0| over n ≤ MaxMixedQubits qubits with an
// all-zero classical record.
func NewMixed(n int) *Mixed {
	if n < 1 || n > MaxMixedQubits {
		panic(fmt.Sprintf("linalg: mixed state over %d qubits, want 1..%d", n, MaxMixedQubits))
	}
	rho := NewMatrix(1 << uint(n))
	rho.Data[0] = 1
	return &Mixed{n: n, parts: map[uint64]Matrix{0: rho}}
}

// conjugate returns uρu†.
func conjugate(u, rho Matrix) Matrix {
	return Mul(Mul(u, rho), ConjTranspose(u))
}

// Apply maps ρ → uρu† on every record for which cond holds (every
// record when cond is nil). u is a full 2^n×2^n unitary, e.g. from
// ExtendGate.
func (m *Mixed) Apply(u Matrix, cond func(record uint64) bool) {
	for rec, rho := range m.parts {
		if cond == nil || cond(rec) {
			m.parts[rec] = conjugate(u, rho)
		}
	}
}

// PauliChannel applies the single-qubit Pauli channel
// ρ → (1−px−py−pz)ρ + px XρX + py YρY + pz ZρZ to qubit q on every
// record.
func (m *Mixed) PauliChannel(q int, px, py, pz float64) {
	paulis := [3]Matrix{
		ExtendGate(m.n, [4]complex128{0, 1, 1, 0}, q, nil, nil),
		ExtendGate(m.n, [4]complex128{0, -1i, 1i, 0}, q, nil, nil),
		ExtendGate(m.n, [4]complex128{1, 0, 0, -1}, q, nil, nil),
	}
	weights := [3]float64{px, py, pz}
	keep := complex(1-px-py-pz, 0)
	for rec, rho := range m.parts {
		out := NewMatrix(rho.N)
		for i, v := range rho.Data {
			out.Data[i] = keep * v
		}
		for k, p := range paulis {
			if weights[k] == 0 {
				continue
			}
			w := complex(weights[k], 0)
			for i, v := range conjugate(p, rho).Data {
				out.Data[i] += w * v
			}
		}
		m.parts[rec] = out
	}
}

// project returns PρP for the projector P onto qubit q reading
// outcome.
func project(rho Matrix, q, outcome int) Matrix {
	out := NewMatrix(rho.N)
	for i := 0; i < rho.N; i++ {
		if (i>>uint(q))&1 != outcome {
			continue
		}
		for j := 0; j < rho.N; j++ {
			if (j>>uint(q))&1 == outcome {
				out.Set(i, j, rho.At(i, j))
			}
		}
	}
	return out
}

// addInto adds b to the record rec of parts.
func addInto(parts map[uint64]Matrix, rec uint64, b Matrix) {
	a, ok := parts[rec]
	if !ok {
		parts[rec] = b
		return
	}
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Measure measures qubit q into classical bit cbit: every record
// splits into the projections onto outcome 0 and 1, with cbit set to
// the outcome. Records that then agree are merged.
func (m *Mixed) Measure(q, cbit int) {
	parts := make(map[uint64]Matrix, 2*len(m.parts))
	bit := uint64(1) << uint(cbit)
	for rec, rho := range m.parts {
		addInto(parts, rec&^bit, project(rho, q, 0))
		addInto(parts, rec|bit, project(rho, q, 1))
	}
	m.parts = parts
}

// Reset returns qubit q to |0⟩ without touching the classical record:
// ρ → P0ρP0 + X·P1ρP1·X.
func (m *Mixed) Reset(q int) {
	flip := ExtendGate(m.n, [4]complex128{0, 1, 1, 0}, q, nil, nil)
	for rec, rho := range m.parts {
		out := project(rho, q, 0)
		for i, v := range conjugate(flip, project(rho, q, 1)).Data {
			out.Data[i] += v
		}
		m.parts[rec] = out
	}
}

// Probabilities returns the distribution of a final computational
// basis measurement of the whole register: the diagonal of ρ summed
// over the classical records.
func (m *Mixed) Probabilities() []float64 {
	probs := make([]float64, 1<<uint(m.n))
	for _, rho := range m.parts {
		for i := range probs {
			probs[i] += real(rho.At(i, i))
		}
	}
	return probs
}
