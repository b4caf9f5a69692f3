package dd

// Property-based tests (testing/quick) of the algebraic invariants the
// decision-diagram engine must preserve: canonicity, linearity of
// addition, (anti)homomorphisms of multiplication and adjoint,
// unitarity/norm preservation, and the probability axioms of
// measurement.

import (
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomState draws a normalized random 2^n state vector.
func randomState(rng *rand.Rand, n int) []complex128 {
	amps := make([]complex128, 1<<uint(n))
	var norm float64
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
	}
	s := complex(1/math.Sqrt(norm), 0)
	for i := range amps {
		amps[i] *= s
	}
	return amps
}

// stateGen adapts randomState to testing/quick.
type stateGen struct {
	Amps []complex128
}

const propQubits = 3

func (stateGen) Generate(rng *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(stateGen{Amps: randomState(rng, propQubits)})
}

var quickCfg = &quick.Config{MaxCount: 60}

// TestPropCanonicity: building the same vector twice (or after an
// arbitrary global scalar that is later divided out) yields the
// identical node.
func TestPropCanonicity(t *testing.T) {
	p := New(propQubits)
	f := func(s stateGen, scaleRe, scaleIm float64) bool {
		e1, err := p.FromVector(s.Amps)
		if err != nil {
			return false
		}
		// Tame quick's arbitrary floats into a reasonable scalar range.
		if math.IsNaN(scaleRe) || math.IsInf(scaleRe, 0) {
			scaleRe = 1
		}
		if math.IsNaN(scaleIm) || math.IsInf(scaleIm, 0) {
			scaleIm = 0
		}
		scale := complex(math.Mod(scaleRe, 3), math.Mod(scaleIm, 3))
		if cmplx.Abs(scale) < 1e-3 {
			scale = 1
		}
		scaled := make([]complex128, len(s.Amps))
		for i, a := range s.Amps {
			scaled[i] = a * scale
		}
		e2, err := p.FromVector(scaled)
		if err != nil {
			return false
		}
		// The node must be shared; only the root weight differs.
		return e1.N == e2.N
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropAddLinear: Amplitude(a+b, i) = Amplitude(a, i) + Amplitude(b, i).
func TestPropAddLinear(t *testing.T) {
	p := New(propQubits)
	f := func(a, b stateGen) bool {
		ea, err1 := p.FromVector(a.Amps)
		eb, err2 := p.FromVector(b.Amps)
		if err1 != nil || err2 != nil {
			return false
		}
		sum := p.AddV(ea, eb)
		for i := int64(0); i < 1<<propQubits; i++ {
			want := a.Amps[i] + b.Amps[i]
			if cmplx.Abs(Amplitude(sum, i)-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropAddCommutative: a+b == b+a (canonically identical edges).
func TestPropAddCommutative(t *testing.T) {
	p := New(propQubits)
	f := func(a, b stateGen) bool {
		ea, _ := p.FromVector(a.Amps)
		eb, _ := p.FromVector(b.Amps)
		ab := p.AddV(ea, eb)
		ba := p.AddV(eb, ea)
		if ab.N != ba.N {
			return false
		}
		return cmplx.Abs(ab.W-ba.W) <= 1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// randomUnitary builds a random circuit's gate DD product.
func randomUnitary(p *Pkg, rng *rand.Rand, gates int) MEdge {
	u := p.Ident()
	n := p.Qubits()
	for i := 0; i < gates; i++ {
		var g MEdge
		target := rng.Intn(n)
		switch rng.Intn(5) {
		case 0:
			g = p.MakeGateDD(gateH, target)
		case 1:
			g = p.MakeGateDD(gateT, target)
		case 2:
			theta := rng.Float64() * 2 * math.Pi
			g = p.MakeGateDD(GateMatrix{1, 0, 0, cmplx.Exp(complex(0, theta))}, target)
		case 3:
			if n < 2 {
				g = p.MakeGateDD(gateX, target)
				break
			}
			c := rng.Intn(n)
			if c == target {
				c = (c + 1) % n
			}
			g = p.MakeGateDD(gateX, target, Control{Qubit: c})
		default:
			g = p.MakeGateDD(gateZ, target)
		}
		u = p.MultMM(g, u)
	}
	return u
}

// TestPropUnitaryPreservesNorm: applying any gate product preserves
// the 2-norm of any state.
func TestPropUnitaryPreservesNorm(t *testing.T) {
	p := New(propQubits)
	rng := rand.New(rand.NewSource(11))
	f := func(s stateGen) bool {
		e, err := p.FromVector(s.Amps)
		if err != nil {
			return false
		}
		u := randomUnitary(p, rng, 6)
		out := p.MultMV(u, e)
		return math.Abs(Norm(out)-Norm(e)) <= 1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropMultMatchesDense: DD matrix-vector product agrees with the
// dense computation entry-wise.
func TestPropMultMatchesDense(t *testing.T) {
	p := New(propQubits)
	rng := rand.New(rand.NewSource(13))
	f := func(s stateGen) bool {
		e, err := p.FromVector(s.Amps)
		if err != nil {
			return false
		}
		u := randomUnitary(p, rng, 5)
		out := p.MultMV(u, e)
		dense := p.Matrix(u)
		for i := int64(0); i < 1<<propQubits; i++ {
			var want complex128
			for j := int64(0); j < 1<<propQubits; j++ {
				want += dense[i][j] * s.Amps[j]
			}
			if cmplx.Abs(Amplitude(out, i)-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropAdjointInvolution: (U†)† == U canonically, and U†·U == I.
func TestPropAdjointInvolution(t *testing.T) {
	p := New(propQubits)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		u := randomUnitary(p, rng, 7)
		ud := p.ConjTranspose(u)
		if back := p.ConjTranspose(ud); back != u {
			t.Fatalf("double adjoint differs at round %d", i)
		}
		if p.CheckIdentity(p.MultMM(ud, u)) == NotIdentity {
			t.Fatalf("U†U != I at round %d", i)
		}
	}
}

// TestPropMeasurementProbabilities: for every qubit, P0 + P1 == 1, and
// collapsing onto an outcome makes its probability 1.
func TestPropMeasurementProbabilities(t *testing.T) {
	p := New(propQubits)
	f := func(s stateGen, qRaw uint8) bool {
		q := int(qRaw) % propQubits
		e, err := p.FromVector(s.Amps)
		if err != nil {
			return false
		}
		p1 := p.ProbOne(e, q)
		if p1 < -1e-9 || p1 > 1+1e-9 {
			return false
		}
		// Cross-check against the dense definition.
		var dense float64
		for i, a := range s.Amps {
			if i>>uint(q)&1 == 1 {
				dense += real(a)*real(a) + imag(a)*imag(a)
			}
		}
		if math.Abs(p1-dense) > 1e-9 {
			return false
		}
		if p1 > 1e-6 {
			c, err := p.Collapse(e, q, 1)
			if err != nil {
				return false
			}
			if math.Abs(p.ProbOne(c, q)-1) > 1e-9 {
				return false
			}
			if math.Abs(Norm(c)-Norm(e)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropInnerProductMatchesDense: ⟨a|b⟩ agrees with the dense dot
// product; |⟨a|b⟩| obeys Cauchy-Schwarz.
func TestPropInnerProductMatchesDense(t *testing.T) {
	p := New(propQubits)
	f := func(a, b stateGen) bool {
		ea, _ := p.FromVector(a.Amps)
		eb, _ := p.FromVector(b.Amps)
		var want complex128
		for i := range a.Amps {
			want += cmplx.Conj(a.Amps[i]) * b.Amps[i]
		}
		got := p.InnerProduct(ea, eb)
		return cmplx.Abs(got-want) <= 1e-9 && cmplx.Abs(got) <= 1+1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropSamplingSupport: sampled indices always carry non-zero
// amplitude.
func TestPropSamplingSupport(t *testing.T) {
	p := New(propQubits)
	rng := rand.New(rand.NewSource(23))
	f := func(s stateGen) bool {
		e, err := p.FromVector(s.Amps)
		if err != nil {
			return false
		}
		for k := 0; k < 16; k++ {
			idx := Sample(e, rng)
			if cmplx.Abs(s.Amps[idx]) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropMultAssociative: (A·B)·C == A·(B·C) canonically.
func TestPropMultAssociative(t *testing.T) {
	p := New(propQubits)
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 25; round++ {
		a := randomUnitary(p, rng, 3)
		b := randomUnitary(p, rng, 3)
		c := randomUnitary(p, rng, 3)
		left := p.MultMM(p.MultMM(a, b), c)
		right := p.MultMM(a, p.MultMM(b, c))
		if left.N != right.N || cmplx.Abs(left.W-right.W) > 1e-9 {
			t.Fatalf("associativity failed at round %d", round)
		}
	}
}

// TestPropKronMixedProduct: (A⊗B)·(C⊗D) == (A·C)⊗(B·D).
func TestPropKronMixedProduct(t *testing.T) {
	pSmall := New(2)
	pBig := New(4)
	rng := rand.New(rand.NewSource(31))
	importTo := func(dst *Pkg, src *Pkg, m MEdge) MEdge {
		out, err := dst.FromMatrix(src.Matrix(m))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	_ = importTo
	for round := 0; round < 15; round++ {
		// Build 2-qubit operators as sub-diagrams of the 4-qubit package
		// via dense import at the bottom levels.
		mk := func() MEdge {
			u := randomUnitary(pSmall, rng, 3)
			dense := pSmall.Matrix(u)
			return pBig.fromMatrix(dense, 0, 0, 4, 1) // levels 0..1
		}
		a, b, c, d := mk(), mk(), mk(), mk()
		left := pBig.MultMM(pBig.KronM(a, b, 2), pBig.KronM(c, d, 2))
		right := pBig.KronM(pBig.MultMM(a, c), pBig.MultMM(b, d), 2)
		if left.N != right.N || cmplx.Abs(left.W-right.W) > 1e-9 {
			t.Fatalf("mixed-product property failed at round %d", round)
		}
	}
}

// TestPropTraceMultiplicativeUnderKron: tr(A⊗B) = tr(A)·tr(B).
func TestPropTraceMultiplicativeUnderKron(t *testing.T) {
	pSmall := New(2)
	pBig := New(4)
	rng := rand.New(rand.NewSource(37))
	for round := 0; round < 15; round++ {
		a := randomUnitary(pSmall, rng, 2)
		b := randomUnitary(pSmall, rng, 2)
		al := pBig.fromMatrix(pSmall.Matrix(a), 0, 0, 4, 1)
		bl := pBig.fromMatrix(pSmall.Matrix(b), 0, 0, 4, 1)
		prod := pBig.KronM(al, bl, 2)
		want := pBig.trace(al, map[*MNode]complex128{}) * pBig.trace(bl, map[*MNode]complex128{})
		got := pBig.Trace(prod)
		if cmplx.Abs(got-want) > 1e-9 {
			t.Fatalf("trace multiplicativity failed: %v vs %v", got, want)
		}
	}
}
