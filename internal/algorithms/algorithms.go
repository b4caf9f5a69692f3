// Package algorithms generates the example circuits offered by the
// visualization tool's "Example Algorithms" list, plus the circuits
// appearing in the paper's figures (the Bell circuit of Fig. 1(c) and
// the three-qubit QFT of Fig. 5).
package algorithms

import (
	"fmt"
	"math"
	"math/rand"

	"quantumdd/internal/qc"
)

// Bell returns the two-qubit circuit of Fig. 1(c): H on the most
// significant qubit followed by a CNOT, preparing the entangled state
// 1/√2(|00⟩+|11⟩) of Ex. 1.
func Bell() *qc.Circuit {
	c := qc.New(2, 2)
	c.Name = "bell"
	c.H(1)
	c.CX(1, 0)
	return c
}

// BellMeasured is Bell plus measurements of both qubits, the
// configuration stepped through in Fig. 8.
func BellMeasured() *qc.Circuit {
	c := Bell()
	c.Name = "bell_measured"
	c.Measure(0, 0)
	c.Measure(1, 1)
	return c
}

// GHZ returns the n-qubit Greenberger–Horne–Zeilinger preparation
// 1/√2(|0…0⟩+|1…1⟩); its DD stays linear in n, a showcase of DD
// compactness.
func GHZ(n int) *qc.Circuit {
	c := qc.New(n, 0)
	c.Name = fmt.Sprintf("ghz_%d", n)
	c.H(n - 1)
	for q := n - 1; q > 0; q-- {
		c.CX(q, q-1)
	}
	return c
}

// WState returns an n-qubit W-state preparation using the standard
// cascade of controlled rotations and CNOTs.
func WState(n int) *qc.Circuit {
	c := qc.New(n, 0)
	c.Name = fmt.Sprintf("w_%d", n)
	// Start with |10…0⟩ (excitation on the top qubit).
	c.X(n - 1)
	for k := n - 1; k > 0; k-- {
		// Distribute amplitude from qubit k to qubit k-1 with a
		// controlled-RY followed by CNOT. The branch that keeps the
		// excitation at qubit k carries cos(β/2), which must equal
		// 1/√(k+1) so that every position ends at amplitude 1/√n.
		beta := 2 * math.Acos(math.Sqrt(1.0/float64(k+1)))
		c.Gate(qc.RY, []float64{beta}, k-1, qc.Control{Qubit: k})
		c.CX(k-1, k)
	}
	return c
}

// QFT returns the n-qubit quantum Fourier transform in the form of
// Fig. 5(a): Hadamards, controlled phase gates P(π/2^k), and final
// SWAPs reversing the qubit order.
func QFT(n int) *qc.Circuit {
	c := qc.New(n, 0)
	c.Name = fmt.Sprintf("qft_%d", n)
	for i := n - 1; i >= 0; i-- {
		c.H(i)
		for j := i - 1; j >= 0; j-- {
			theta := math.Pi / math.Pow(2, float64(i-j))
			c.Phase(theta, i, qc.Control{Qubit: j})
		}
	}
	for i := 0; i < n/2; i++ {
		c.SwapGate(i, n-1-i)
	}
	return c
}

// QFTCompiled returns the QFT lowered to the {1q, CX} native set with
// barriers after each decomposed gate — the compiled circuit of
// Fig. 5(b) used in the verification walk-through of Ex. 12.
func QFTCompiled(n int) *qc.Circuit {
	compiled, err := qc.CompileNative(QFT(n), qc.CompileOptions{EmitBarriers: true})
	if err != nil {
		// The QFT only contains H, CP and SWAP; lowering cannot fail.
		panic(err)
	}
	compiled.Name = fmt.Sprintf("qft_%d_compiled", n)
	return compiled
}

// Grover returns Grover's search over n working qubits with the given
// marked element, iterated the standard ⌊π/4·√(2^n)⌋ times.
func Grover(n int, marked uint64) *qc.Circuit {
	if n < 2 {
		panic("algorithms: Grover needs at least 2 qubits")
	}
	c := qc.New(n, 0)
	c.Name = fmt.Sprintf("grover_%d_%d", n, marked)
	iterations := int(math.Floor(math.Pi / 4 * math.Sqrt(math.Pow(2, float64(n)))))
	if iterations < 1 {
		iterations = 1
	}
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for it := 0; it < iterations; it++ {
		// Oracle: flip the phase of |marked⟩ via a multi-controlled Z
		// with negative controls on the 0 bits.
		oracleZ(c, n, marked)
		// Diffusion: H^n · (2|0><0| - I) · H^n.
		for q := 0; q < n; q++ {
			c.H(q)
		}
		oracleZ(c, n, 0)
		for q := 0; q < n; q++ {
			c.H(q)
		}
	}
	return c
}

// oracleZ appends a phase flip on basis state |marked⟩.
func oracleZ(c *qc.Circuit, n int, marked uint64) {
	controls := make([]qc.Control, 0, n-1)
	for q := 0; q < n-1; q++ {
		controls = append(controls, qc.Control{Qubit: q, Neg: marked>>uint(q)&1 == 0})
	}
	target := n - 1
	if marked>>uint(target)&1 == 0 {
		c.X(target)
		c.Z(target, controls...)
		c.X(target)
	} else {
		c.Z(target, controls...)
	}
}

// BernsteinVazirani returns the BV circuit recovering the given secret
// over n qubits in a single query (phase-oracle formulation without an
// ancilla: the oracle is a layer of Z gates on the secret bits).
func BernsteinVazirani(n int, secret uint64) *qc.Circuit {
	c := qc.New(n, n)
	c.Name = fmt.Sprintf("bv_%d_%d", n, secret)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for q := 0; q < n; q++ {
		if secret>>uint(q)&1 == 1 {
			c.Z(q)
		}
	}
	for q := 0; q < n; q++ {
		c.H(q)
	}
	c.Barrier()
	for q := 0; q < n; q++ {
		c.Measure(q, q)
	}
	return c
}

// QPE returns quantum phase estimation of the phase gate P(2π·phase)
// with bits precision qubits. The eigenstate |1⟩ occupies qubit 0;
// the counting register occupies qubits 1..bits.
func QPE(bits int, phase float64) *qc.Circuit {
	n := bits + 1
	c := qc.New(n, bits)
	c.Name = fmt.Sprintf("qpe_%d", bits)
	c.X(0) // eigenstate |1⟩ of P
	for q := 1; q <= bits; q++ {
		c.H(q)
	}
	for q := 1; q <= bits; q++ {
		reps := 1 << uint(q-1)
		theta := 2 * math.Pi * phase * float64(reps)
		c.Phase(theta, 0, qc.Control{Qubit: q})
	}
	// Inverse QFT on the counting register.
	appendInverseQFT(c, 1, bits)
	c.Barrier()
	for q := 1; q <= bits; q++ {
		c.Measure(q, q-1)
	}
	return c
}

// appendInverseQFT appends the inverse QFT on qubits
// [offset, offset+n) without final swaps (bit-reversed read-out).
func appendInverseQFT(c *qc.Circuit, offset, n int) {
	for i := 0; i < n/2; i++ {
		c.SwapGate(offset+i, offset+n-1-i)
	}
	for i := 0; i < n; i++ {
		for j := i - 1; j >= 0; j-- {
			theta := -math.Pi / math.Pow(2, float64(i-j))
			c.Phase(theta, offset+i, qc.Control{Qubit: offset + j})
		}
		c.H(offset + i)
	}
}

// Teleport returns the three-qubit teleportation circuit: qubit 2
// (Alice's payload) is prepared with the given angles, entangled pair
// on qubits 1 and 0, Bell measurement, and classically-controlled
// corrections on Bob's qubit 0 — exercising measurement and classical
// control (Sec. IV-B).
func Teleport(theta, phi float64) *qc.Circuit {
	c := qc.New(3, 3)
	c.Name = "teleportation"
	// Prepare payload |ψ⟩ = U(θ,φ,0)|0⟩ on qubit 2.
	c.Gate(qc.U, []float64{theta, phi, 0}, 2)
	c.Barrier()
	// Entangle qubits 1 (Alice) and 0 (Bob).
	c.H(1)
	c.CX(1, 0)
	c.Barrier()
	// Bell measurement of payload and Alice's half.
	c.CX(2, 1)
	c.H(2)
	c.Measure(2, 2)
	c.Measure(1, 1)
	c.Barrier()
	// Bob's corrections.
	c.GateIf(qc.X, nil, 0, []int{1}, 1)
	c.GateIf(qc.Z, nil, 0, []int{2}, 1)
	return c
}

// Adder returns an n-bit ripple-carry adder (Cuccaro-style MAJ/UMA
// chains built from Toffoli and CNOT gates) computing b += a. Layout:
// qubit 0 is the carry ancilla, qubits 1..n are a, qubits n+1..2n are
// b, with interleaving as produced by the index helpers.
func Adder(n int) *qc.Circuit {
	if n < 1 {
		panic("algorithms: adder needs at least 1 bit")
	}
	c := qc.New(2*n+2, 0)
	c.Name = fmt.Sprintf("adder_%d", n)
	aq := func(i int) int { return 1 + 2*i }
	bq := func(i int) int { return 2 + 2*i }
	carry := 0
	maj := func(x, y, z int) {
		c.CX(z, y)
		c.CX(z, x)
		c.CCX(x, y, z)
	}
	uma := func(x, y, z int) {
		c.CCX(x, y, z)
		c.CX(z, x)
		c.CX(x, y)
	}
	maj(carry, bq(0), aq(0))
	for i := 1; i < n; i++ {
		maj(aq(i-1), bq(i), aq(i))
	}
	c.CX(aq(n-1), 2*n+1) // carry out
	for i := n - 1; i >= 1; i-- {
		uma(aq(i-1), bq(i), aq(i))
	}
	uma(carry, bq(0), aq(0))
	return c
}

// RandomCircuit returns a pseudo-random circuit over n qubits with the
// given number of layers, drawn from {H,X,Y,Z,S,T,P,RX,RY,RZ,CX} using
// the deterministic seed — the "limits" end of the E8 scaling study.
func RandomCircuit(n, layers int, seed int64) *qc.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := qc.New(n, 0)
	c.Name = fmt.Sprintf("random_%d_%d", n, layers)
	single := []qc.Gate{qc.H, qc.X, qc.Y, qc.Z, qc.S, qc.T}
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			switch rng.Intn(4) {
			case 0:
				c.Gate(single[rng.Intn(len(single))], nil, q)
			case 1:
				c.Phase(rng.Float64()*2*math.Pi, q)
			case 2:
				g := []qc.Gate{qc.RX, qc.RY, qc.RZ}[rng.Intn(3)]
				c.Gate(g, []float64{rng.Float64() * 2 * math.Pi}, q)
			case 3:
				t := rng.Intn(n)
				if t == q {
					c.H(q)
				} else {
					c.CX(q, t)
				}
			}
		}
	}
	return c
}

// Entangled returns a layered entangling circuit that drives DD growth
// (H layer + random CZ pattern) — a harder instance family for E8.
func Entangled(n, layers int, seed int64) *qc.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := qc.New(n, 0)
	c.Name = fmt.Sprintf("entangled_%d_%d", n, layers)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.Gate(qc.RY, []float64{rng.Float64() * math.Pi}, q)
		}
		for q := 0; q+1 < n; q += 2 {
			c.Z(q, qc.Control{Qubit: q + 1})
		}
		for q := 1; q+1 < n; q += 2 {
			c.Z(q, qc.Control{Qubit: q + 1})
		}
	}
	return c
}
