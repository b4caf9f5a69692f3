package dd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"quantumdd/internal/cnum"
)

const tol = 1e-9

func approx(a, b complex128) bool { return cmplx.Abs(a-b) <= tol }

// Gate matrices used across the tests.
var (
	gateH = GateMatrix{complex(cnum.SqrtHalf, 0), complex(cnum.SqrtHalf, 0), complex(cnum.SqrtHalf, 0), complex(-cnum.SqrtHalf, 0)}
	gateX = GateMatrix{0, 1, 1, 0}
	gateZ = GateMatrix{1, 0, 0, -1}
	gateS = GateMatrix{1, 0, 0, complex(0, 1)}
	gateT = GateMatrix{1, 0, 0, cmplx.Exp(complex(0, math.Pi/4))}
)

func bellState(t testing.TB, p *Pkg) VEdge {
	t.Helper()
	state := p.ZeroState()
	h := p.MakeGateDD(gateH, 1)
	cx := p.MakeGateDD(gateX, 0, Control{Qubit: 1})
	state = p.MultMV(h, state)
	return p.MultMV(cx, state)
}

func TestZeroState(t *testing.T) {
	p := New(3)
	e := p.ZeroState()
	if got := Amplitude(e, 0); !approx(got, 1) {
		t.Fatalf("amplitude of |000> = %v, want 1", got)
	}
	for i := int64(1); i < 8; i++ {
		if got := Amplitude(e, i); got != 0 {
			t.Fatalf("amplitude of |%03b> = %v, want 0", i, got)
		}
	}
	if got := SizeV(e); got != 3 {
		t.Fatalf("zero state has %d nodes, want 3", got)
	}
}

func TestBasisState(t *testing.T) {
	p := New(3)
	for idx := int64(0); idx < 8; idx++ {
		e := p.BasisState(idx)
		for i := int64(0); i < 8; i++ {
			want := complex128(0)
			if i == idx {
				want = 1
			}
			if got := Amplitude(e, i); !approx(got, want) {
				t.Fatalf("basis %d: amplitude[%d] = %v, want %v", idx, i, got, want)
			}
		}
	}
}

// TestBellStateStructure reproduces Ex. 6 / Fig. 2(a): the Bell state
// DD has 3 nodes and both non-zero paths carry amplitude 1/sqrt(2).
func TestBellStateStructure(t *testing.T) {
	p := New(2)
	e := bellState(t, p)
	if got := SizeV(e); got != 3 {
		t.Fatalf("Bell state DD has %d nodes, want 3 (Ex. 6)", got)
	}
	want := complex(cnum.SqrtHalf, 0)
	if got := Amplitude(e, 0); !approx(got, want) {
		t.Fatalf("amplitude |00> = %v, want 1/sqrt2", got)
	}
	if got := Amplitude(e, 3); !approx(got, want) {
		t.Fatalf("amplitude |11> = %v, want 1/sqrt2", got)
	}
	if got := Amplitude(e, 1); got != 0 {
		t.Fatalf("amplitude |01> = %v, want 0", got)
	}
	if got := Amplitude(e, 2); got != 0 {
		t.Fatalf("amplitude |10> = %v, want 0", got)
	}
	if err := p.CheckUnitVector(e); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicity: building the same state along different gate orders
// must yield the identical root edge (pointer equality), the property
// verification relies on.
func TestCanonicity(t *testing.T) {
	p := New(2)
	// Route 1: H on q1 then CX.
	a := bellState(t, p)
	// Route 2: build from the dense vector.
	b, err := p.FromVector([]complex128{complex(cnum.SqrtHalf, 0), 0, 0, complex(cnum.SqrtHalf, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("canonical forms differ: %+v vs %+v", a, b)
	}
}

func TestFromVectorRoundTrip(t *testing.T) {
	p := New(3)
	rng := rand.New(rand.NewSource(7))
	amps := make([]complex128, 8)
	var norm float64
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
	}
	s := complex(1/math.Sqrt(norm), 0)
	for i := range amps {
		amps[i] *= s
	}
	e, err := p.FromVector(amps)
	if err != nil {
		t.Fatal(err)
	}
	back := p.Vector(e)
	for i := range amps {
		if !approx(back[i], amps[i]) {
			t.Fatalf("round trip amplitude %d: got %v want %v", i, back[i], amps[i])
		}
	}
}

func TestFromVectorLengthMismatch(t *testing.T) {
	p := New(2)
	if _, err := p.FromVector(make([]complex128, 3)); err == nil {
		t.Fatal("expected error for wrong vector length")
	}
}

// TestGateDDStructure reproduces Fig. 2(b,c): the Hadamard DD is a
// single node, the CNOT DD has 3 nodes, and both reconstruct their
// defining matrices from Fig. 1.
func TestGateDDStructure(t *testing.T) {
	p := New(2)
	h := p.MakeGateDD(gateH, 0)
	// H extended over 2 qubits: I (x) H has 2 nodes; the bare single-
	// qubit structure on a 1-qubit package is 1 node.
	p1 := New(1)
	h1 := p1.MakeGateDD(gateH, 0)
	if got := SizeM(h1); got != 1 {
		t.Fatalf("H DD has %d nodes, want 1 (Fig. 2(b))", got)
	}
	s := cnum.SqrtHalf
	wantH := [][]complex128{
		{complex(s, 0), complex(s, 0)},
		{complex(s, 0), complex(-s, 0)},
	}
	gotH := p1.Matrix(h1)
	for i := range wantH {
		for j := range wantH[i] {
			if !approx(gotH[i][j], wantH[i][j]) {
				t.Fatalf("H[%d][%d] = %v, want %v", i, j, gotH[i][j], wantH[i][j])
			}
		}
	}
	cx := p.MakeGateDD(gateX, 0, Control{Qubit: 1})
	if got := SizeM(cx); got != 3 {
		t.Fatalf("CNOT DD has %d nodes, want 3 (Fig. 2(c))", got)
	}
	wantCX := [][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	}
	gotCX := p.Matrix(cx)
	for i := range wantCX {
		for j := range wantCX[i] {
			if !approx(gotCX[i][j], wantCX[i][j]) {
				t.Fatalf("CNOT[%d][%d] = %v, want %v", i, j, gotCX[i][j], wantCX[i][j])
			}
		}
	}
	_ = h
}

// TestKronTerminalReplacement reproduces Ex. 8 / Fig. 3: H (x) I2 via
// the kron operation equals the gate DD of H on the upper qubit, and
// applying it to |00> yields 1/sqrt2 [1,0,1,0].
func TestKronTerminalReplacement(t *testing.T) {
	p := New(2)
	// Build the two operand diagrams as sub-diagrams: H at level 1
	// cannot be built directly as a small DD, so build H on a level-0
	// basis and shift it via kron.
	var hEdge MEdge
	{
		var em [4]MEdge
		for i, w := range gateH {
			em[i] = MEdge{W: w, N: mTerminal}
		}
		hEdge = p.makeMNode(0, em) // H as a 1-level diagram
	}
	id := p.identUpTo(0)
	kron := p.KronM(hEdge, id, 1)
	direct := p.MakeGateDD(gateH, 1)
	if kron != direct {
		t.Fatalf("H kron I2 != gate DD of H on q1: %+v vs %+v", kron, direct)
	}
	state := p.MultMV(kron, p.ZeroState())
	want := []complex128{complex(cnum.SqrtHalf, 0), 0, complex(cnum.SqrtHalf, 0), 0}
	got := p.Vector(state)
	for i := range want {
		if !approx(got[i], want[i]) {
			t.Fatalf("amplitude %d = %v, want %v (Ex. 3)", i, got[i], want[i])
		}
	}
}

func TestIdentity(t *testing.T) {
	p := New(3)
	id := p.Ident()
	if got := SizeM(id); got != 3 {
		t.Fatalf("identity DD has %d nodes, want 3", got)
	}
	if k := p.CheckIdentity(id); k != IdentityExact {
		t.Fatalf("CheckIdentity(I) = %v, want IdentityExact", k)
	}
	phase := cmplx.Exp(complex(0, 1.234))
	up := MEdge{W: p.cn.Lookup(id.W * phase), N: id.N}
	if k := p.CheckIdentity(up); k != IdentityUpToPhase {
		t.Fatalf("CheckIdentity(e^{i phi} I) = %v, want IdentityUpToPhase", k)
	}
	h := p.MakeGateDD(gateH, 0)
	if k := p.CheckIdentity(h); k != NotIdentity {
		t.Fatalf("CheckIdentity(H) = %v, want NotIdentity", k)
	}
}

// TestCheckIdentityResidues: a diagram that is the identity up to
// residues above the complex-table tolerance but within 1e-8 is the
// identity (up to its root phase); a residue of 1e-6 is not.
func TestCheckIdentityResidues(t *testing.T) {
	p := New(3)
	near := func(eps complex128, phase complex128) MEdge {
		rows := make([][]complex128, 8)
		for i := range rows {
			rows[i] = make([]complex128, 8)
			rows[i][i] = phase
		}
		rows[5][1] = phase * eps
		rows[6][6] = phase * (1 + eps)
		m, err := p.FromMatrix(rows)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	phase := cmplx.Exp(complex(0, 1.234))
	for _, c := range []struct {
		eps, phase complex128
		want       IdentityKind
	}{
		{5e-10, 1, IdentityExact},
		{complex(0, -3e-9), phase, IdentityUpToPhase},
		{1e-6, 1, NotIdentity},
		{1e-6, phase, NotIdentity},
	} {
		m := near(c.eps, c.phase)
		if m.N == p.Ident().N && c.eps != 0 {
			t.Fatalf("residue %v snapped to the identity node; the test needs a distinct diagram", c.eps)
		}
		if k := p.CheckIdentity(m); k != c.want {
			t.Fatalf("CheckIdentity(I + %v, phase %v) = %v, want %v", c.eps, c.phase, k, c.want)
		}
	}
}

func TestMultMMUnitaryComposition(t *testing.T) {
	p := New(2)
	h := p.MakeGateDD(gateH, 1)
	cx := p.MakeGateDD(gateX, 0, Control{Qubit: 1})
	u := p.MultMM(cx, h)
	// U applied to |00> must give the Bell state.
	state := p.MultMV(u, p.ZeroState())
	want := bellState(t, p)
	if state != want {
		t.Fatalf("composed functionality disagrees with step-wise simulation")
	}
	// H·H = I, X·X = I, and U†·U = I.
	if got := p.MultMM(h, h); p.CheckIdentity(got) != IdentityExact {
		t.Fatalf("H.H is not the identity: %+v", got)
	}
	udag := p.ConjTranspose(u)
	if got := p.MultMM(udag, u); p.CheckIdentity(got) == NotIdentity {
		t.Fatalf("Udag.U is not the identity")
	}
}

func TestConjTranspose(t *testing.T) {
	p := New(2)
	s := p.MakeGateDD(gateS, 0, Control{Qubit: 1})
	sd := p.ConjTranspose(s)
	m := p.Matrix(s)
	md := p.Matrix(sd)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !approx(md[i][j], cmplx.Conj(m[j][i])) {
				t.Fatalf("adjoint mismatch at (%d,%d)", i, j)
			}
		}
	}
	// (S†)† = S must hit the same canonical diagram.
	if back := p.ConjTranspose(sd); back != s {
		t.Fatalf("double adjoint is not the original diagram")
	}
}

func TestAddV(t *testing.T) {
	p := New(2)
	a := p.BasisState(0)
	b := p.BasisState(3)
	sum := p.AddV(a, b)
	if got := Amplitude(sum, 0); !approx(got, 1) {
		t.Fatalf("sum amplitude |00> = %v, want 1", got)
	}
	if got := Amplitude(sum, 3); !approx(got, 1) {
		t.Fatalf("sum amplitude |11> = %v, want 1", got)
	}
	// a + (-1)*a = 0
	neg := VEdge{W: -a.W, N: a.N}
	if got := p.AddV(a, neg); !got.IsZero() {
		t.Fatalf("a - a = %+v, want zero", got)
	}
	// zero identity element
	if got := p.AddV(a, VZero()); got != a {
		t.Fatalf("a + 0 != a")
	}
	if got := p.AddV(VZero(), b); got != b {
		t.Fatalf("0 + b != b")
	}
}

func TestNegativeControl(t *testing.T) {
	p := New(2)
	// X on q0 if q1 == 0: |00> -> |01>, |10> stays.
	cx := p.MakeGateDD(gateX, 0, Control{Qubit: 1, Neg: true})
	out := p.MultMV(cx, p.BasisState(0))
	if got := Amplitude(out, 1); !approx(got, 1) {
		t.Fatalf("negative control: |00> -> amplitude |01> = %v, want 1", got)
	}
	out = p.MultMV(cx, p.BasisState(2))
	if got := Amplitude(out, 2); !approx(got, 1) {
		t.Fatalf("negative control: |10> should be unchanged, amplitude = %v", got)
	}
}

func TestToffoli(t *testing.T) {
	p := New(3)
	ccx := p.MakeGateDD(gateX, 0, Control{Qubit: 1}, Control{Qubit: 2})
	for idx := int64(0); idx < 8; idx++ {
		out := p.MultMV(ccx, p.BasisState(idx))
		want := idx
		if idx&0b110 == 0b110 {
			want = idx ^ 1
		}
		if got := Amplitude(out, want); !approx(got, 1) {
			t.Fatalf("Toffoli |%03b>: amplitude |%03b> = %v, want 1", idx, want, got)
		}
	}
}

func TestSwap(t *testing.T) {
	p := New(3)
	sw := p.MakeSwapDD(0, 2)
	for idx := int64(0); idx < 8; idx++ {
		out := p.MultMV(sw, p.BasisState(idx))
		b0 := idx & 1
		b2 := idx >> 2 & 1
		want := idx&0b010 | b0<<2 | b2
		if got := Amplitude(out, want); !approx(got, 1) {
			t.Fatalf("SWAP(0,2) |%03b>: amplitude |%03b> = %v, want 1", idx, want, got)
		}
	}
}

func TestProbabilitiesAndCollapse(t *testing.T) {
	p := New(2)
	e := bellState(t, p)
	if got := p.ProbOne(e, 0); math.Abs(got-0.5) > tol {
		t.Fatalf("P(q0=1) = %v, want 0.5 (Ex. 2)", got)
	}
	if got := p.ProbOne(e, 1); math.Abs(got-0.5) > tol {
		t.Fatalf("P(q1=1) = %v, want 0.5", got)
	}
	// Fig. 8(d): measuring q0 as 1 collapses to |11>.
	c, err := p.Collapse(e, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := Amplitude(c, 3); !approx(got, 1) {
		t.Fatalf("post-measurement amplitude |11> = %v, want 1", got)
	}
	if got := p.ProbOne(c, 1); math.Abs(got-1) > tol {
		t.Fatalf("entangled partner not collapsed: P(q1=1) = %v, want 1", got)
	}
	// Probability-zero outcome must error.
	basis := p.BasisState(0)
	if _, err := p.Collapse(basis, 0, 1); err == nil {
		t.Fatal("expected error collapsing |00> to q0=1")
	}
}

func TestMeasureDistribution(t *testing.T) {
	p := New(2)
	e := bellState(t, p)
	rng := rand.New(rand.NewSource(42))
	ones := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		p1 := p.ProbOne(e, 0)
		if math.Abs(p1-0.5) > tol {
			t.Fatalf("P(q0=1) = %v, want 0.5", p1)
		}
		outcome := 0
		if rng.Float64() < p1 {
			outcome = 1
		}
		collapsed, err := p.Collapse(e, 0, outcome)
		if err != nil {
			t.Fatal(err)
		}
		if outcome == 1 {
			ones++
			if got := Amplitude(collapsed, 3); !approx(got, 1) {
				t.Fatalf("collapse after outcome 1 wrong")
			}
		} else if got := Amplitude(collapsed, 0); !approx(got, 1) {
			t.Fatalf("collapse after outcome 0 wrong")
		}
	}
	if ones < trials/2-150 || ones > trials/2+150 {
		t.Fatalf("measurement bias: %d ones out of %d", ones, trials)
	}
}

func TestSampleNonDestructive(t *testing.T) {
	p := New(2)
	e := bellState(t, p)
	rng := rand.New(rand.NewSource(1))
	counts := SampleCounts(e, 4000, rng)
	if counts[1] != 0 || counts[2] != 0 {
		t.Fatalf("sampled impossible basis states: %v", counts)
	}
	if counts[0] < 1700 || counts[3] < 1700 {
		t.Fatalf("sampling far from 50/50: %v", counts)
	}
	// Non-destructive: the diagram is unchanged and resampling works.
	if got := SizeV(e); got != 3 {
		t.Fatalf("sampling mutated the diagram")
	}
}

func TestReset(t *testing.T) {
	p := New(2)
	e := bellState(t, p)
	res, err := p.ResetTo(e, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-reset value 1 selects the |11> branch; q0 then reinitializes
	// to |0>, leaving |10>.
	if got := Amplitude(res, 2); !approx(got, 1) {
		t.Fatalf("reset outcome: amplitude |10> = %v, want 1", got)
	}
	if err := p.CheckUnitVector(res); err != nil {
		t.Fatal(err)
	}
}

func TestInnerProductFidelity(t *testing.T) {
	p := New(2)
	bell := bellState(t, p)
	zero := p.ZeroState()
	ip := p.InnerProduct(zero, bell)
	if !approx(ip, complex(cnum.SqrtHalf, 0)) {
		t.Fatalf("<00|bell> = %v, want 1/sqrt2", ip)
	}
	if f := p.Fidelity(bell, bell); math.Abs(f-1) > tol {
		t.Fatalf("fidelity with itself = %v, want 1", f)
	}
	if f := p.Fidelity(zero, p.BasisState(3)); f > tol {
		t.Fatalf("fidelity of orthogonal states = %v, want 0", f)
	}
}

func TestGarbageCollection(t *testing.T) {
	p := New(4)
	keep := bellStateOn4(p)
	p.IncRefV(keep)
	// Create garbage.
	for i := 0; i < 50; i++ {
		h := p.MakeGateDD(gateH, i%4)
		_ = p.MultMV(h, p.ZeroState())
	}
	vBefore, _ := p.ActiveNodes()
	vFreed, _ := p.GarbageCollect()
	if vFreed == 0 {
		t.Fatalf("expected garbage to be collected (had %d live vector nodes)", vBefore)
	}
	// The kept diagram must still evaluate correctly.
	if got := Amplitude(keep, 0); !approx(got, complex(cnum.SqrtHalf, 0)) {
		t.Fatalf("kept diagram corrupted after GC: %v", got)
	}
	// And rebuilding it must reuse the protected nodes.
	again := bellStateOn4(p)
	if again != keep {
		t.Fatalf("rebuilding after GC lost canonicity")
	}
	p.DecRefV(keep)
}

func bellStateOn4(p *Pkg) VEdge {
	h := p.MakeGateDD(gateH, 1)
	cx := p.MakeGateDD(gateX, 0, Control{Qubit: 1})
	return p.MultMV(cx, p.MultMV(h, p.ZeroState()))
}

func TestMatrixEntryAgainstDense(t *testing.T) {
	p := New(3)
	u := p.MultMM(p.MakeGateDD(gateT, 2, Control{Qubit: 0}), p.MultMM(p.MakeGateDD(gateH, 1), p.MakeGateDD(gateS, 0)))
	dense := p.Matrix(u)
	for i := int64(0); i < 8; i++ {
		for j := int64(0); j < 8; j++ {
			if got := MatrixEntry(u, i, j); !approx(got, dense[i][j]) {
				t.Fatalf("entry (%d,%d): %v vs %v", i, j, got, dense[i][j])
			}
		}
	}
}

func TestStatsAndCacheHits(t *testing.T) {
	p := New(2)
	h := p.MakeGateDD(gateH, 1)
	s := p.ZeroState()
	_ = p.MultMV(h, s)
	before := p.Stats()
	_ = p.MultMV(h, s) // identical operands: must hit the cache
	after := p.Stats()
	if after.CacheHits <= before.CacheHits {
		t.Fatalf("repeated multiplication did not hit the compute cache")
	}
}

func TestPkgValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero qubits", func() { New(0) })
	mustPanic("too many qubits", func() { New(63) })
	p := New(2)
	mustPanic("target range", func() { p.MakeGateDD(gateX, 5) })
	mustPanic("control=target", func() { p.MakeGateDD(gateX, 0, Control{Qubit: 0}) })
	mustPanic("duplicate control", func() { p.MakeGateDD(gateX, 0, Control{Qubit: 1}, Control{Qubit: 1}) })
	mustPanic("basis range", func() { p.BasisState(4) })
	mustPanic("swap same", func() { p.MakeSwapDD(1, 1) })
}

func TestGlobalPhaseCanonicalization(t *testing.T) {
	p := New(1)
	// Z|1> = -|1>: the phase must live in the root weight, the node
	// must be the |1> node itself.
	one := p.BasisState(1)
	z := p.MakeGateDD(gateZ, 0)
	out := p.MultMV(z, one)
	if out.N != one.N {
		t.Fatalf("Z|1> created a new node instead of reusing |1>")
	}
	if !approx(out.W, -1) {
		t.Fatalf("Z|1> weight = %v, want -1", out.W)
	}
}

func TestCollapseZeroVectorRejected(t *testing.T) {
	p := New(2)
	if _, err := p.Collapse(VZero(), 0, 0); err == nil {
		t.Fatal("collapsing the zero vector must error, not panic")
	}
}

// TestGCWatermark pins the collection rule: the first collection comes
// at GCFloor live nodes, the next once the live count has doubled from
// what the previous one left, referenced diagrams survive, and a fresh
// watermark on the same package starts from the floor again.
func TestGCWatermark(t *testing.T) {
	if poisonSwept {
		// The detector build collects at every check, far below the
		// floor.
		p := New(2)
		var w GCWatermark
		for i := range 3 {
			if p.BasisState(int64(i)); !w.MaybeCollect(p) {
				t.Fatalf("check %d at %d live nodes did not collect", i, p.LiveNodes())
			}
		}
		return
	}
	const n = 12 // a basis state adds at most n new nodes
	p := New(n)
	rng := rand.New(rand.NewSource(1))
	kept := map[int64]VEdge{}
	grow := func(keep bool) {
		idx := rng.Int63n(1 << n)
		e := p.BasisState(idx)
		if _, dup := kept[idx]; keep && !dup {
			p.IncRefV(e)
			kept[idx] = e
		}
	}

	var w GCWatermark
	var at, left []int // live nodes before and after each collection
	for i := 0; len(at) < 3; i++ {
		// Two of three states stay referenced, so what survives a
		// collection is more than half the floor and the doubling, not
		// the floor, sets the next watermark.
		grow(i%3 != 0)
		live := p.LiveNodes()
		if w.MaybeCollect(p) {
			at = append(at, live)
			left = append(left, p.LiveNodes())
		}
	}
	if at[0] < GCFloor || at[0] >= GCFloor+n {
		t.Fatalf("first collection at %d live nodes, want the first check past the floor %d", at[0], GCFloor)
	}
	for k := 1; k < len(at); k++ {
		want := 2 * left[k-1]
		if want <= GCFloor {
			t.Fatalf("collection %d left %d live nodes: the test needs more than half the floor", k, left[k-1])
		}
		if at[k] < want || at[k] >= want+n {
			t.Fatalf("collection %d at %d live nodes, want the first check past 2 × %d", k+1, at[k], left[k-1])
		}
	}
	for idx, e := range kept {
		if !approx(Amplitude(e, idx), 1) {
			t.Fatalf("referenced basis state %d lost in a collection", idx)
		}
	}

	// The caller keeps the watermark: a fresh one collects at the floor
	// while w still waits for its doubling.
	for p.LiveNodes() < GCFloor {
		grow(false)
	}
	if live := p.LiveNodes(); live >= 2*left[len(left)-1] {
		t.Fatalf("%d live nodes already reach w's watermark", live)
	}
	var fresh GCWatermark
	if w.MaybeCollect(p) || !fresh.MaybeCollect(p) {
		t.Fatal("a fresh watermark must collect at the floor and w must not")
	}
	t.Logf("collections at %v live nodes, leaving %v", at, left)
}

// TestStatsComplexValues: the complex-table gauge reports the table's
// size, grows as new weights appear, sums under Add and keeps its
// current value under Delta, like the other gauges.
func TestStatsComplexValues(t *testing.T) {
	p := New(3)
	before := p.Stats()
	if before.ComplexValues != p.cn.Size() || before.ComplexValues == 0 {
		t.Fatalf("fresh package: ComplexValues = %d, table size %d", before.ComplexValues, p.cn.Size())
	}
	e := p.ZeroState()
	for q := 0; q < 3; q++ {
		e = p.MultMV(p.MakeGateDD(GateMatrix{complex(0.6, 0), complex(0.8, 0), complex(0.8, 0), complex(-0.6, 0)}, q), e)
	}
	after := p.Stats()
	if after.ComplexValues != p.cn.Size() || after.ComplexValues <= before.ComplexValues {
		t.Fatalf("after new weights: ComplexValues = %d (was %d), table size %d", after.ComplexValues, before.ComplexValues, p.cn.Size())
	}
	if sum := after.Add(before); sum.ComplexValues != after.ComplexValues+before.ComplexValues {
		t.Fatalf("Add: ComplexValues = %d, want %d", sum.ComplexValues, after.ComplexValues+before.ComplexValues)
	}
	if d := after.Delta(before); d.ComplexValues != after.ComplexValues {
		t.Fatalf("Delta: ComplexValues = %d, want the current %d", d.ComplexValues, after.ComplexValues)
	}
}
