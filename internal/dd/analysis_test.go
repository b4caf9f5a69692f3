package dd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestTrace(t *testing.T) {
	p := New(3)
	// tr(I) = 8.
	if got := p.Trace(p.Ident()); !approx(got, 8) {
		t.Fatalf("tr(I) = %v, want 8", got)
	}
	// tr(H ⊗ I ⊗ I) = tr(H)·tr(I)·tr(I) = 0.
	h := p.MakeGateDD(gateH, 2)
	if got := p.Trace(h); cmplx.Abs(got) > tol {
		t.Fatalf("tr(H x I x I) = %v, want 0", got)
	}
	// tr(S on q0) = tr(S)·4 = (1+i)·4.
	s := p.MakeGateDD(gateS, 0)
	if got := p.Trace(s); !approx(got, complex(4, 4)) {
		t.Fatalf("tr(S x I x I) = %v, want 4+4i", got)
	}
	// Trace of the zero matrix.
	if got := p.Trace(MZero()); got != 0 {
		t.Fatalf("tr(0) = %v", got)
	}
}

func TestHSOverlap(t *testing.T) {
	p := New(2)
	h := p.MakeGateDD(gateH, 1)
	cx := p.MakeGateDD(gateX, 0, Control{Qubit: 1})
	u := p.MultMM(cx, h)
	if got := p.HSOverlap(u, u); math.Abs(got-1) > tol {
		t.Fatalf("self overlap = %v, want 1", got)
	}
	// Global phase leaves the overlap at 1.
	phased := MEdge{W: u.W * cmplx.Exp(complex(0, 0.9)), N: u.N}
	if got := p.HSOverlap(u, phased); math.Abs(got-1) > tol {
		t.Fatalf("phase overlap = %v, want 1", got)
	}
	// Orthogonal-ish operators overlap below 1.
	if got := p.HSOverlap(u, p.Ident()); got > 0.9 {
		t.Fatalf("overlap of distinct unitaries = %v, want < 0.9", got)
	}
}

func TestSizeByLevel(t *testing.T) {
	p := New(2)
	bell := bellState(t, p)
	hist := p.SizeByLevelV(bell)
	if hist[1] != 1 || hist[0] != 2 {
		t.Fatalf("Bell level histogram = %v, want [2 1]", hist)
	}
	if sum := hist[0] + hist[1]; sum != SizeV(bell) {
		t.Fatalf("histogram sum %d != size %d", sum, SizeV(bell))
	}
	cx := p.MakeGateDD(gateX, 0, Control{Qubit: 1})
	mhist := p.SizeByLevelM(cx)
	if mhist[1] != 1 || mhist[0] != 2 {
		t.Fatalf("CNOT level histogram = %v, want [2 1]", mhist)
	}
}

func TestFromMatrixRoundTrip(t *testing.T) {
	p := New(2)
	rng := rand.New(rand.NewSource(5))
	rows := make([][]complex128, 4)
	for i := range rows {
		rows[i] = make([]complex128, 4)
		for j := range rows[i] {
			rows[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	m, err := p.FromMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	back := p.Matrix(m)
	for i := range rows {
		for j := range rows[i] {
			if !approx(back[i][j], rows[i][j]) {
				t.Fatalf("entry (%d,%d): %v vs %v", i, j, back[i][j], rows[i][j])
			}
		}
	}
	// Canonicity: importing a gate matrix equals building the gate DD.
	cx := p.MakeGateDD(gateX, 0, Control{Qubit: 1})
	imported, err := p.FromMatrix(p.Matrix(cx))
	if err != nil {
		t.Fatal(err)
	}
	if imported != cx {
		t.Fatal("dense import broke canonicity")
	}
}

func TestFromMatrixValidation(t *testing.T) {
	p := New(2)
	if _, err := p.FromMatrix(make([][]complex128, 3)); err == nil {
		t.Fatal("wrong row count accepted")
	}
	bad := [][]complex128{make([]complex128, 4), make([]complex128, 3), make([]complex128, 4), make([]complex128, 4)}
	if _, err := p.FromMatrix(bad); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestIsUnitaryDD(t *testing.T) {
	p := New(2)
	u := p.MultMM(p.MakeGateDD(gateX, 0, Control{Qubit: 1}), p.MakeGateDD(gateH, 1))
	if !p.IsUnitaryDD(u) {
		t.Fatal("unitary rejected")
	}
	// A projector is not unitary: |0><0| on q0 tensored with I.
	proj, err := p.FromMatrix([][]complex128{
		{1, 0, 0, 0},
		{0, 0, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.IsUnitaryDD(proj) {
		t.Fatal("projector accepted as unitary")
	}
}

func TestPathCount(t *testing.T) {
	p := New(3)
	if got := PathCount(p.BasisState(5)); got != 1 {
		t.Fatalf("basis path count = %d", got)
	}
	bell2 := bellStateOn4(New(4))
	if got := PathCount(bell2); got != 2 {
		t.Fatalf("bell path count = %d", got)
	}
	// Uniform superposition: 2^3 paths.
	st := p.ZeroState()
	for q := 0; q < 3; q++ {
		st = p.MultMV(p.MakeGateDD(gateH, q), st)
	}
	if got := PathCount(st); got != 8 {
		t.Fatalf("|+++> path count = %d, want 8", got)
	}
	if got := PathCount(VZero()); got != 0 {
		t.Fatalf("zero path count = %d", got)
	}
}
