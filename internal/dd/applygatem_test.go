package dd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"quantumdd/internal/qc"
)

// randMatrixDD builds a random sparse operator diagram: roughly a
// third of the entries are hard zeros so the diagram carries zero
// stubs, like the vector-side randState.
func randMatrixDD(t *testing.T, p *Pkg, rng *rand.Rand, n int) MEdge {
	t.Helper()
	dim := 1 << uint(n)
	rows := make([][]complex128, dim)
	nonzero := false
	for i := range rows {
		rows[i] = make([]complex128, dim)
		for j := range rows[i] {
			if rng.Float64() < 0.35 {
				continue
			}
			rows[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
			nonzero = true
		}
	}
	if !nonzero {
		rows[0][0] = 1
	}
	e, err := p.FromMatrix(rows)
	if err != nil {
		t.Fatalf("FromMatrix: %v", err)
	}
	return e
}

// TestApplyGateMLMatchesGenericRandom is the core differential test of
// the left orientation: on evolving operands over 1–10 qubits (starting
// at the identity, like the alternating verify scheme), ApplyGateML
// must return exactly the canonical root edge the generic
// MakeGateDD+MultMM path builds — pointer-identical node, identical
// weight — including multi-controlled gates with controls below the
// target.
func TestApplyGateMLMatchesGenericRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for n := 1; n <= 10; n++ {
		p := New(n)
		m := p.Ident()
		steps := 12 + 2*n
		for s := 0; s < steps; s++ {
			u := randGateMatrix(rng)
			target := rng.Intn(n)
			ctl := randControls(rng, n, target)
			want := p.MultMM(p.MakeGateDD(u, target, ctl...), m)
			got := p.ApplyGateML(m, u, target, ctl...)
			if got != want {
				t.Fatalf("n=%d step=%d: ApplyGateML root (%v,%p) != generic (%v,%p)",
					n, s, got.W, got.N, want.W, want.N)
			}
			m = got
		}
	}
}

// TestApplyGateMRMatchesGenericRandom mirrors the differential test for
// the right orientation M·G, the side the alternating scheme feeds
// inverted gates into.
func TestApplyGateMRMatchesGenericRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for n := 1; n <= 10; n++ {
		p := New(n)
		m := p.Ident()
		steps := 12 + 2*n
		for s := 0; s < steps; s++ {
			u := randGateMatrix(rng)
			target := rng.Intn(n)
			ctl := randControls(rng, n, target)
			want := p.MultMM(m, p.MakeGateDD(u, target, ctl...))
			got := p.ApplyGateMR(m, u, target, ctl...)
			if got != want {
				t.Fatalf("n=%d step=%d: ApplyGateMR root (%v,%p) != generic (%v,%p)",
					n, s, got.W, got.N, want.W, want.N)
			}
			m = got
		}
	}
}

// TestApplyGateMSparseOperands drives both orientations over sparse
// random (non-unitary) operands, so zero quadrants and weight-factored
// edges are exercised, not just near-identity unitaries.
func TestApplyGateMSparseOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for n := 1; n <= 6; n++ {
		for trial := 0; trial < 6; trial++ {
			p := New(n)
			m := randMatrixDD(t, p, rng, n)
			u := randGateMatrix(rng)
			target := rng.Intn(n)
			ctl := randControls(rng, n, target)
			gdd := p.MakeGateDD(u, target, ctl...)
			if got, want := p.ApplyGateML(m, u, target, ctl...), p.MultMM(gdd, m); got != want {
				t.Fatalf("n=%d trial=%d: ML mismatch", n, trial)
			}
			if got, want := p.ApplyGateMR(m, u, target, ctl...), p.MultMM(m, gdd); got != want {
				t.Fatalf("n=%d trial=%d: MR mismatch", n, trial)
			}
		}
	}
}

// TestApplyGateMIdentityFastPath: applying a gate to the identity must
// short-circuit into the cached gate sub-diagram without descending —
// G·I = I·G = G — and the skip counter must record it.
func TestApplyGateMIdentityFastPath(t *testing.T) {
	p := New(8)
	x := p.Ident()
	want := p.MakeGateDD(gateH, 3, Control{Qubit: 6})
	before := p.Stats().ApplyMIdentitySkips
	got := p.ApplyGateML(x, gateH, 3, Control{Qubit: 6})
	if got != want {
		t.Fatalf("ApplyGateML(Ident) != MakeGateDD: (%v,%p) vs (%v,%p)", got.W, got.N, want.W, want.N)
	}
	if got := p.ApplyGateMR(x, gateH, 3, Control{Qubit: 6}); got != want {
		t.Fatalf("ApplyGateMR(Ident) != MakeGateDD")
	}
	if skips := p.Stats().ApplyMIdentitySkips; skips <= before {
		t.Fatalf("identity fast path not taken: skips %d -> %d", before, skips)
	}
	// The skip must also fire on identity SUB-blocks: a gate on a low
	// qubit leaves the upper levels walking identity chains.
	p2 := New(8)
	y := p2.ApplyGateML(p2.Ident(), gateH, 0)
	if p2.Stats().ApplyMIdentitySkips == 0 {
		t.Fatalf("no identity skip while descending to a bottom-level target")
	}
	if want := p2.MakeGateDD(gateH, 0); y != want {
		t.Fatalf("low-target apply mismatch")
	}
}

// TestApplyGateMCheckedBudget exercises the budget-exhaustion path:
// the checked variants must return ErrResourceExhausted, leave the
// ref-protected operand untouched, and keep the package usable for
// further (partial-progress) work afterwards.
func TestApplyGateMCheckedBudget(t *testing.T) {
	const n = 10
	p := New(n)
	rng := rand.New(rand.NewSource(46))
	// Drift away from the identity so the operand is non-trivial.
	x := p.Ident()
	for s := 0; s < 6; s++ {
		target := rng.Intn(n)
		x = p.ApplyGateML(x, randGateMatrix(rng), target, randControls(rng, n, target)...)
	}
	p.IncRefM(x)
	sizeBefore := SizeM(x)

	p.SetMaxNodes(p.LiveNodes() + 2)
	var failed bool
	for s := 0; s < 40 && !failed; s++ {
		target := rng.Intn(n)
		u := randGateMatrix(rng)
		ctl := randControls(rng, n, target)
		var err error
		var next MEdge
		if s%2 == 0 {
			next, err = p.ApplyGateMLChecked(x, u, target, ctl...)
		} else {
			next, err = p.ApplyGateMRChecked(x, u, target, ctl...)
		}
		if err != nil {
			if !errors.Is(err, ErrResourceExhausted) {
				t.Fatalf("want ErrResourceExhausted, got %v", err)
			}
			var re *ResourceError
			if !errors.As(err, &re) || re.Limit != p.MaxNodes() {
				t.Fatalf("malformed ResourceError: %v", err)
			}
			failed = true
			break
		}
		_ = next
	}
	if !failed {
		t.Fatalf("budget of %d nodes never exhausted", p.MaxNodes())
	}
	// The protected operand survived the abort byte for byte.
	if got := SizeM(x); got != sizeBefore {
		t.Fatalf("operand corrupted by aborted op: size %d -> %d", sizeBefore, got)
	}
	// Partial progress: lifting the budget, the same package finishes
	// the work and still agrees with the generic path.
	p.SetMaxNodes(0)
	u := randGateMatrix(rng)
	got, err := p.ApplyGateMLChecked(x, u, 2, Control{Qubit: 5})
	if err != nil {
		t.Fatalf("apply after lifting budget: %v", err)
	}
	if want := p.MultMM(p.MakeGateDD(u, 2, Control{Qubit: 5}), x); got != want {
		t.Fatalf("post-abort result diverges from generic path")
	}
	p.DecRefM(x)
}

// TestApplyGateMCheckedMatchesUnchecked: far from the budget, the
// checked variants must be bit-identical to the unchecked kernel.
func TestApplyGateMCheckedMatchesUnchecked(t *testing.T) {
	p := New(5)
	p.SetMaxNodes(1 << 20)
	x := p.Ident()
	got, err := p.ApplyGateMLChecked(x, gateH, 2, Control{Qubit: 4})
	if err != nil {
		t.Fatalf("checked: %v", err)
	}
	if want := p.ApplyGateML(x, gateH, 2, Control{Qubit: 4}); got != want {
		t.Fatalf("checked != unchecked")
	}
}

// TestApplyGateMStatsCounters: the kernel feeds its dedicated counter
// family — lookups, hits, and the kernel-vs-generic op split.
func TestApplyGateMStatsCounters(t *testing.T) {
	p := New(6)
	x := p.Ident()
	for i := 0; i < 4; i++ {
		x = p.ApplyGateML(x, gateH, 1, Control{Qubit: 3})
		x = p.ApplyGateMR(x, gateH, 1, Control{Qubit: 3})
	}
	st := p.Stats()
	if st.ApplyMOps != 8 {
		t.Fatalf("ApplyMOps = %d, want 8", st.ApplyMOps)
	}
	if st.ApplyMCTLookups == 0 {
		t.Fatalf("ApplyMCTLookups = 0 after kernel work")
	}
	if st.ApplyMCTHits == 0 {
		t.Fatalf("ApplyMCTHits = 0: repeated applications should hit the table")
	}
	if st.MultMMOps != 0 {
		t.Fatalf("MultMMOps = %d, want 0 (no generic multiply involved)", st.MultMMOps)
	}
	p.MultMM(x, x)
	if got := p.Stats().MultMMOps; got != 1 {
		t.Fatalf("MultMMOps = %d after one generic multiply, want 1", got)
	}
}

// TestApplyGateMValidation mirrors the vector kernel's operand checks.
func TestApplyGateMValidation(t *testing.T) {
	p := New(3)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for operand not spanning the target")
		}
	}()
	p.ApplyGateML(MOne(), gateH, 1)
}

// TestAdjointProductFastPath: IsUnitaryDD and HSOverlap on a cached
// gate diagram, on a phase-scaled edge to it and on a product of two
// gate diagrams must give the numeric answers.
func TestAdjointProductFastPath(t *testing.T) {
	p := New(5)
	tg := GateMatrix{1, 0, 0, cmplx.Exp(complex(0, math.Pi/4))}
	a := p.MakeGateDD(tg, 2, Control{Qubit: 4}, Control{Qubit: 0, Neg: true})
	if !p.IsUnitaryDD(a) {
		t.Fatalf("controlled T not recognized as unitary")
	}
	if ov := p.HSOverlap(a, a); math.Abs(ov-1) > 1e-9 {
		t.Fatalf("HSOverlap(a,a) = %v, want 1", ov)
	}
	// Scaled edges to the same root still compute the right product.
	scaled := MEdge{W: a.W * complex(0, 1), N: a.N}
	if ov := p.HSOverlap(scaled, a); math.Abs(ov-1) > 1e-9 {
		t.Fatalf("HSOverlap(i·a, a) = %v, want 1 (phase-invariant)", ov)
	}
	b := p.MultMM(a, p.MakeGateDD(gateH, 1))
	if ov := p.HSOverlap(b, b); math.Abs(ov-1) > 1e-9 {
		t.Fatalf("HSOverlap(b,b) = %v, want 1", ov)
	}
}

// TestApplyGateMSidesDigest pins the matrix kernel's output bits and
// counters on seeded mixed-side runs over 2–9 qubits: left and right
// gate applications with positive and negative controls above and
// below the target, SWAPs on both sides, checked and unchecked
// entries, a garbage collection mid-run, and (on odd widths) compute
// tables small enough to evict. The digest was first recorded from two
// hand-mirrored left and right descents, and re-recorded when
// intermediate weights stopped going through the complex table and
// when two addends into one node began to add by their weights; a
// change in node or complex-value creation order, or in which table a
// lookup lands in, moves it.
func TestApplyGateMSidesDigest(t *testing.T) {
	const want = "53800505c60431315365e93a12a40ded9678829fe4ba7ad84bfffced14eef2f2"
	h := sha256.New()
	var buf []byte
	for n := 2; n <= 9; n++ {
		rng := rand.New(rand.NewSource(int64(200 + n)))
		p := New(n)
		p.SetMaxNodes(1 << 20)
		if n%2 == 1 {
			p.SetComputeTableSize(ctMinSize)
		}
		m := p.Ident()
		p.IncRefM(m)
		for s := 0; s < 60; s++ {
			if s == 30 {
				p.GarbageCollect()
			}
			target := rng.Intn(n)
			var free []int
			for q := 0; q < n; q++ {
				if q != target {
					free = append(free, q)
				}
			}
			rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
			var next MEdge
			var err error
			switch k := rng.Intn(6); k {
			case 4, 5:
				var ctl []Control
				if len(free) > 1 && rng.Intn(2) == 1 {
					ctl = []Control{{Qubit: free[1], Neg: rng.Intn(2) == 1}}
				}
				op := &qc.Op{Kind: qc.KindGate, Gate: qc.Swap, Targets: []int{target, free[0]}, Controls: ctl}
				if k == 4 {
					next, err = p.ApplyOpML(m, op)
				} else {
					next, err = p.ApplyOpMR(m, op)
				}
			default:
				ctl := make([]Control, 0, 3)
				for _, q := range free[:min(rng.Intn(4), len(free))] {
					ctl = append(ctl, Control{Qubit: q, Neg: rng.Intn(2) == 1})
				}
				u := randGateMatrix(rng)
				switch k {
				case 0:
					next = p.ApplyGateML(m, u, target, ctl...)
				case 1:
					next = p.ApplyGateMR(m, u, target, ctl...)
				case 2:
					next, err = p.ApplyGateMLChecked(m, u, target, ctl...)
				default:
					next, err = p.ApplyGateMRChecked(m, u, target, ctl...)
				}
			}
			if err != nil {
				t.Fatalf("n=%d step=%d: %v", n, s, err)
			}
			p.IncRefM(next)
			p.DecRefM(m)
			m = next
		}
		st := p.Stats()
		buf = p.AppendMatrixBinary(buf[:0], m)
		for _, c := range []uint64{
			st.ApplyMCTLookups, st.ApplyMCTHits, st.ApplyMCTEvictions, st.ApplyMIdentitySkips,
			st.ApplyMOps, st.CacheLookups, st.CacheHits, st.CTStores, st.CTEvictions,
			uint64(st.ComplexValues),
		} {
			buf = binary.LittleEndian.AppendUint64(buf, c)
		}
		h.Write(buf)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("digest = %s, want %s", got, want)
	}
}
