package dd

import (
	"math"
	"testing"
)

func TestExpectationPauliBellCorrelations(t *testing.T) {
	p := New(2)
	bell := bellState(t, p)
	// The Bell state 1/√2(|00⟩+|11⟩) has the famous correlations:
	// ⟨ZZ⟩ = ⟨XX⟩ = +1, ⟨YY⟩ = −1, single-qubit ⟨Z⟩ = ⟨X⟩ = 0.
	cases := map[string]float64{
		"ZZ": 1, "XX": 1, "YY": -1,
		"ZI": 0, "IZ": 0, "XI": 0, "IX": 0,
		"II": 1,
	}
	for pauli, want := range cases {
		got, err := p.ExpectationPauli(bell, pauli)
		if err != nil {
			t.Fatalf("%s: %v", pauli, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("<%s> = %v, want %v", pauli, got, want)
		}
	}
}

func TestExpectationPauliBasisStates(t *testing.T) {
	p := New(3)
	// |q2 q1 q0⟩ = |101⟩: Z eigenvalues (-1, +1, -1); string "ZII" acts
	// on q2.
	e := p.BasisState(0b101)
	for pauli, want := range map[string]float64{
		"ZII": -1, "IZI": 1, "IIZ": -1, "ZIZ": 1, "ZZZ": 1,
	} {
		got, err := p.ExpectationPauli(e, pauli)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("<%s> on |101> = %v, want %v", pauli, got, want)
		}
	}
}

func TestExpectationPauliPlusState(t *testing.T) {
	p := New(1)
	plus := p.MultMV(p.MakeGateDD(gateH, 0), p.ZeroState())
	x, err := p.ExpectationPauli(plus, "X")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-1) > 1e-9 {
		t.Fatalf("<X> on |+> = %v, want 1", x)
	}
	y, err := p.ExpectationPauli(plus, "Y")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y) > 1e-9 {
		t.Fatalf("<Y> on |+> = %v, want 0", y)
	}
}

func TestExpectationPauliErrors(t *testing.T) {
	p := New(2)
	e := p.ZeroState()
	if _, err := p.ExpectationPauli(e, "Z"); err == nil {
		t.Fatal("short string accepted")
	}
	if _, err := p.ExpectationPauli(e, "QZ"); err == nil {
		t.Fatal("invalid letter accepted")
	}
}
