package algorithms

import (
	"math"
	"math/cmplx"
	"testing"

	"quantumdd/internal/dd"
	"quantumdd/internal/linalg"
	"quantumdd/internal/qc"
	"quantumdd/internal/verify"
)

func functionality(t *testing.T, c *qc.Circuit) (*dd.Pkg, dd.MEdge) {
	t.Helper()
	p := dd.New(c.NQubits)
	u, _, err := verify.BuildFunctionality(p, c)
	if err != nil {
		t.Fatal(err)
	}
	return p, u
}

func TestBellMatchesFig1(t *testing.T) {
	c := Bell()
	if c.NQubits != 2 || c.NumGates() != 2 {
		t.Fatalf("bell shape wrong: %d qubits, %d gates", c.NQubits, c.NumGates())
	}
	p, u := functionality(t, c)
	st := p.MultMV(u, p.ZeroState())
	if got := dd.Amplitude(st, 0); math.Abs(real(got)-1/math.Sqrt2) > 1e-12 {
		t.Fatalf("amplitude |00> = %v", got)
	}
	if got := dd.Amplitude(st, 3); math.Abs(real(got)-1/math.Sqrt2) > 1e-12 {
		t.Fatalf("amplitude |11> = %v", got)
	}
}

func TestQFTMatchesDenseDefinition(t *testing.T) {
	for n := 1; n <= 5; n++ {
		_, u := functionality(t, QFT(n))
		want := linalg.QFTMatrix(n)
		dim := int64(1) << uint(n)
		for i := int64(0); i < dim; i++ {
			for j := int64(0); j < dim; j++ {
				if cmplx.Abs(dd.MatrixEntry(u, i, j)-want.At(int(i), int(j))) > 1e-9 {
					t.Fatalf("QFT(%d) entry (%d,%d) wrong", n, i, j)
				}
			}
		}
	}
}

func TestQFTCompiledShape(t *testing.T) {
	// Fig. 5: the 3-qubit QFT has 7 gates (3 H, 3 CP, 1 SWAP); its
	// compiled form has 21 (3 H, 3x5 for CPs, 3 CX for the SWAP) —
	// the 1:3 ratio exploited by Ex. 12.
	qft := QFT(3)
	comp := QFTCompiled(3)
	if qft.NumGates() != 7 {
		t.Fatalf("QFT3 has %d gates, want 7", qft.NumGates())
	}
	if comp.NumGates() != 21 {
		t.Fatalf("compiled QFT3 has %d gates, want 21", comp.NumGates())
	}
	// Compiled circuit uses only native gates (H, P, CX).
	for i := range comp.Ops {
		op := &comp.Ops[i]
		if op.Kind != qc.KindGate {
			continue
		}
		switch {
		case op.Gate == qc.Swap:
			t.Fatalf("compiled circuit still contains a SWAP")
		case op.Gate == qc.P && len(op.Controls) > 0:
			t.Fatalf("compiled circuit still contains a controlled phase")
		}
	}
	// Barriers group the expansions (Ex. 12 steps between them).
	barriers := 0
	for i := range comp.Ops {
		if comp.Ops[i].Kind == qc.KindBarrier {
			barriers++
		}
	}
	if barriers != 7 {
		t.Fatalf("compiled QFT3 has %d barriers, want 7 (one per abstract gate)", barriers)
	}
}

func TestGHZStructure(t *testing.T) {
	for _, n := range []int{2, 3, 6} {
		c := GHZ(n)
		if c.NumGates() != n {
			t.Fatalf("GHZ(%d) has %d gates, want %d", n, c.NumGates(), n)
		}
	}
}

func TestGroverShape(t *testing.T) {
	c := Grover(3, 5)
	if c.NQubits != 3 {
		t.Fatalf("Grover qubits = %d", c.NQubits)
	}
	if c.NumGates() == 0 {
		t.Fatal("Grover circuit empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Grover(1, 0) should panic")
		}
	}()
	Grover(1, 0)
}

func TestQPEEstimatesPhase(t *testing.T) {
	// phase = 3/8 = 0.011b with 3 counting bits: exact estimation.
	const bits = 3
	const phase = 3.0 / 8.0
	c := QPE(bits, phase)
	p := dd.New(c.NQubits)
	st := p.ZeroState()
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Kind != qc.KindGate {
			continue
		}
		var g dd.MEdge
		if op.Gate == qc.Swap {
			g = p.MakeSwapDD(op.Targets[0], op.Targets[1], op.Controls...)
		} else {
			g = p.MakeGateDD(dd.GateMatrix(qc.Matrix2(op.Gate, op.Params)), op.Targets[0], op.Controls...)
		}
		st = p.MultMV(g, st)
	}
	// The counting register (qubits 1..3) must hold binary 011 with
	// probability 1. Bit i of the estimate is qubit i+1... the inverse
	// QFT returns the most significant bit on the top counting qubit.
	var best int64 = -1
	bestP := 0.0
	for idx := int64(0); idx < 16; idx++ {
		a := dd.Amplitude(st, idx)
		pr := real(a)*real(a) + imag(a)*imag(a)
		if pr > bestP {
			bestP = pr
			best = idx
		}
	}
	if bestP < 0.99 {
		t.Fatalf("QPE not concentrated: best probability %v", bestP)
	}
	counting := best >> 1 // drop eigenstate qubit 0
	got := float64(counting) / 8.0
	if math.Abs(got-phase) > 1e-9 {
		t.Fatalf("QPE estimated %v (register %03b), want %v", got, counting, phase)
	}
}

func TestTeleportShape(t *testing.T) {
	c := Teleport(1.0, 0.5)
	if c.NQubits != 3 || c.NClbits != 3 {
		t.Fatalf("teleport registers wrong")
	}
	conds := 0
	for i := range c.Ops {
		if c.Ops[i].Cond != nil {
			conds++
		}
	}
	if conds != 2 {
		t.Fatalf("teleport has %d conditional corrections, want 2", conds)
	}
}

func TestAdderIsReversible(t *testing.T) {
	c := Adder(2)
	p, u := functionality(t, c)
	// U†U = I: the adder is a permutation.
	ud := p.ConjTranspose(u)
	if p.CheckIdentity(p.MultMM(ud, u)) == dd.NotIdentity {
		t.Fatal("adder not unitary")
	}
	// Every column has exactly one 1 (permutation matrix).
	m := p.Matrix(u)
	for j := range m {
		ones := 0
		for i := range m {
			switch {
			case cmplx.Abs(m[i][j]-1) < 1e-9:
				ones++
			case cmplx.Abs(m[i][j]) > 1e-9:
				t.Fatalf("adder matrix has non-binary entry %v", m[i][j])
			}
		}
		if ones != 1 {
			t.Fatalf("adder column %d has %d ones", j, ones)
		}
	}
}

func TestRandomCircuitDeterministic(t *testing.T) {
	a := RandomCircuit(4, 3, 42)
	b := RandomCircuit(4, 3, 42)
	if a.String() != b.String() {
		t.Fatal("same seed produced different circuits")
	}
	c := RandomCircuit(4, 3, 43)
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical circuits")
	}
}

func TestEntangledLayout(t *testing.T) {
	c := Entangled(4, 2, 1)
	if c.NQubits != 4 || c.NumGates() == 0 {
		t.Fatal("entangled circuit malformed")
	}
}

func TestBVSecretWidths(t *testing.T) {
	c := BernsteinVazirani(4, 0b1011)
	if c.NQubits != 4 || c.NClbits != 4 {
		t.Fatal("BV register sizes wrong")
	}
}
