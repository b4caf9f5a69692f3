package verify

import (
	"math"
	"math/cmplx"
	"testing"

	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
)

// Bounds of a fuzzed circuit: the dense operator stays 32×32.
const (
	fuzzMaxQubits = 5
	fuzzMaxOps    = 48
)

// fuzzStream hands out fuzz bytes one at a time, zeros once exhausted,
// so every byte string decodes to some circuit.
type fuzzStream []byte

func (b *fuzzStream) next() byte {
	if len(*b) == 0 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return x
}

// take removes and returns the entry of free that sel selects.
func take(free *[]int, sel int) int {
	i := sel % len(*free)
	q := (*free)[i]
	*free = append((*free)[:i], (*free)[i+1:]...)
	return q
}

// angle reads a rotation angle: a signed 16-bit multiple of π/4096, so
// the exact angles 0, ±π/2 and ±π are reachable.
func (b *fuzzStream) angle() float64 {
	k := int16(uint16(b.next())<<8 | uint16(b.next()))
	return float64(k) * math.Pi / 4096
}

// fuzzOp appends one op to c, reading its targets from free (the
// qubits not yet used by the op) and any further operands from b.
type fuzzOp func(b *fuzzStream, c *qc.Circuit, free *[]int)

// fuzzOps is the op table a kind byte indexes: the fixed gates, the
// rotations and SWAP, each under 0–2 positive or negative controls.
// New op families (measure and reset with forced outcomes, say) are
// new entries.
var fuzzOps = func() []fuzzOp {
	var ops []fuzzOp
	for _, g := range []qc.Gate{qc.H, qc.X, qc.Y, qc.Z, qc.S, qc.Sdg, qc.T, qc.Tdg} {
		ops = append(ops, func(b *fuzzStream, c *qc.Circuit, free *[]int) {
			t := take(free, int(b.next()))
			c.Gate(g, nil, t, fuzzControls(b, free)...)
		})
	}
	for _, g := range []qc.Gate{qc.RX, qc.RY, qc.RZ, qc.P} {
		ops = append(ops, func(b *fuzzStream, c *qc.Circuit, free *[]int) {
			t := take(free, int(b.next()))
			ctl := fuzzControls(b, free)
			c.Gate(g, []float64{b.angle()}, t, ctl...)
		})
	}
	return append(ops, func(b *fuzzStream, c *qc.Circuit, free *[]int) {
		if len(*free) < 2 {
			return
		}
		x := take(free, int(b.next()))
		y := take(free, int(b.next()))
		c.SwapGate(x, y, fuzzControls(b, free)...)
	})
}()

// fuzzControls reads a count byte (0–2 controls, fewer if the register
// runs out) and one byte per control: its qubit, and its polarity in
// the top bit.
func fuzzControls(b *fuzzStream, free *[]int) []qc.Control {
	k := min(int(b.next())%3, len(*free))
	var ctl []qc.Control
	for range k {
		sel := b.next()
		ctl = append(ctl, qc.Control{Qubit: take(free, int(sel&0x7f)), Neg: sel&0x80 != 0})
	}
	return ctl
}

// fuzzCircuit decodes fuzz bytes into a unitary circuit: the first byte
// sets the width (1–5 qubits), then each op reads a kind byte indexing
// fuzzOps followed by that op's operands, until the bytes or the op
// limit run out.
func fuzzCircuit(data []byte) *qc.Circuit {
	b := fuzzStream(data)
	n := 1 + int(b.next())%fuzzMaxQubits
	c := qc.New(n, 0)
	c.Name = "fuzz"
	for len(b) > 0 && len(c.Ops) < fuzzMaxOps {
		op := fuzzOps[int(b.next())%len(fuzzOps)]
		free := make([]int, n)
		for q := range free {
			free[q] = q
		}
		op(&b, c, &free)
	}
	return c
}

// FuzzKernelDense holds the gate-apply kernels to the dense baseline on
// fuzzed circuits: the simulated final state and the functionality
// match internal/linalg within 1e-9, global phase included, and every
// strategy proves the circuit equivalent to itself.
func FuzzKernelDense(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzCircuit(data)
		want := denseOperator(t, c)

		s := sim.New(c)
		if _, err := s.RunToEnd(); err != nil {
			t.Fatalf("simulate %s: %v", c, err)
		}
		for i, a := range s.Amplitudes() {
			if d := cmplx.Abs(a - want.At(i, 0)); d > 1e-9 {
				t.Fatalf("%s\namplitude %d: dd %v, dense %v (|Δ| = %.3g)", c, i, a, want.At(i, 0), d)
			}
		}

		p := dd.New(c.NQubits)
		u, err := Functionality(p, c)
		if err != nil {
			t.Fatalf("functionality of %s: %v", c, err)
		}
		checkDense(t, c.String(), p, u, want, 1e-9)

		for _, st := range allStrategies {
			r, err := Check(c, c, st)
			if err != nil {
				t.Fatalf("check %s under %v: %v", c, st, err)
			}
			if !r.Equivalent {
				t.Fatalf("%s\nnot equivalent to itself under %v", c, st)
			}
		}
	})
}
