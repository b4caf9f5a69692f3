package verify

import (
	"math"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/linalg"
	"quantumdd/internal/qc"
)

var allStrategies = []Strategy{Construction, Sequential, OneToOne, Proportional, Lookahead}

// TestQFTEquivalenceAllStrategies reproduces Ex. 11: the abstract
// three-qubit QFT of Fig. 5(a) and its compiled version of Fig. 5(b)
// are equivalent under every strategy.
func TestQFTEquivalenceAllStrategies(t *testing.T) {
	qft := algorithms.QFT(3)
	comp := algorithms.QFTCompiled(3)
	for _, s := range allStrategies {
		res, err := Check(qft, comp, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !res.Equivalent {
			t.Fatalf("%v: circuits reported non-equivalent", s)
		}
	}
}

// TestEx12NodeCounts reproduces the headline numbers of Ex. 12: the
// proportional alternating scheme verifies the QFT against its
// compiled version within a maximum of 9 nodes, whereas building the
// entire system matrix requires 21 nodes.
func TestEx12NodeCounts(t *testing.T) {
	qft := algorithms.QFT(3)
	comp := algorithms.QFTCompiled(3)
	prop, err := Check(qft, comp, Proportional)
	if err != nil {
		t.Fatal(err)
	}
	if prop.PeakNodes != 9 {
		t.Fatalf("proportional peak = %d nodes, want 9 (Ex. 12)", prop.PeakNodes)
	}
	cons, err := Check(qft, comp, Construction)
	if err != nil {
		t.Fatal(err)
	}
	if cons.PeakNodes != 21 {
		t.Fatalf("construction peak = %d nodes, want 21 (Ex. 12)", cons.PeakNodes)
	}
	// The alternating scheme ends at the identity (3 nodes), "close to
	// the identity throughout the whole process" (Ex. 15).
	if prop.FinalNodes != 3 {
		t.Fatalf("final diagram has %d nodes, want identity with 3", prop.FinalNodes)
	}
}

// TestQFTFunctionalityMatrix reproduces Fig. 5(c)/Fig. 6: both QFT
// versions build the same canonical 21-node DD representing the 8×8
// ω-matrix.
func TestQFTFunctionalityMatrix(t *testing.T) {
	p := dd.New(3)
	u1, _, err := BuildFunctionality(p, algorithms.QFT(3))
	if err != nil {
		t.Fatal(err)
	}
	// The second build may collect: U of the first must stay referenced.
	p.IncRefM(u1)
	defer p.DecRefM(u1)
	u2, _, err := BuildFunctionality(p, algorithms.QFTCompiled(3))
	if err != nil {
		t.Fatal(err)
	}
	if u1 != u2 {
		t.Fatal("canonical roots differ (Ex. 11 expects identical DDs)")
	}
	if got := dd.SizeM(u1); got != 21 {
		t.Fatalf("QFT3 functionality DD has %d nodes, want 21", got)
	}
	// Entry check against the dense QFT matrix.
	want := linalg.QFTMatrix(3)
	for i := int64(0); i < 8; i++ {
		for j := int64(0); j < 8; j++ {
			got := dd.MatrixEntry(u1, i, j)
			if d := got - want.At(int(i), int(j)); math.Abs(real(d)) > 1e-9 || math.Abs(imag(d)) > 1e-9 {
				t.Fatalf("QFT entry (%d,%d) = %v, want %v", i, j, got, want.At(int(i), int(j)))
			}
		}
	}
}

func TestNonEquivalenceDetected(t *testing.T) {
	qft := algorithms.QFT(3)
	broken := algorithms.QFT(3)
	// Flip one angle: a subtle compilation bug.
	for i := range broken.Ops {
		if broken.Ops[i].Gate == qc.P {
			broken.Ops[i].Params[0] *= -1
			break
		}
	}
	for _, s := range allStrategies {
		res, err := Check(qft, broken, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Equivalent {
			t.Fatalf("%v: broken circuit reported equivalent", s)
		}
	}
}

func TestGlobalPhaseDifference(t *testing.T) {
	// RZ(θ) = e^{-iθ/2} P(θ): equivalent only up to global phase.
	a := qc.New(1, 0)
	a.Gate(qc.RZ, []float64{1.3}, 0)
	b := qc.New(1, 0)
	b.Phase(1.3, 0)
	for _, s := range allStrategies {
		res, err := Check(a, b, s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent || !res.UpToGlobalPhase {
			t.Fatalf("%v: want equivalence up to global phase, got %+v", s, res)
		}
	}
}

func TestEmptyVsIdentity(t *testing.T) {
	a := qc.New(2, 0)
	b := qc.New(2, 0)
	b.X(0).X(0) // X·X = I
	for _, s := range allStrategies {
		res, err := Check(a, b, s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent || res.UpToGlobalPhase {
			t.Fatalf("%v: X X should be exactly the identity: %+v", s, res)
		}
	}
}

func TestMismatchedWidthsRejected(t *testing.T) {
	a := qc.New(2, 0)
	b := qc.New(3, 0)
	if _, err := Check(a, b, Construction); err == nil {
		t.Fatal("expected error for mismatched register widths")
	}
}

func TestNonUnitaryRejected(t *testing.T) {
	a := qc.New(1, 1)
	a.Measure(0, 0)
	b := qc.New(1, 1)
	if _, err := Check(a, b, Construction); err == nil {
		t.Fatal("expected error for measured circuit")
	}
	if _, err := Check(a, b, Proportional); err == nil {
		t.Fatal("expected error for measured circuit (alternating)")
	}
	if _, _, err := SimulationCheck(a, b, 4, 1); err == nil {
		t.Fatal("expected error for measured circuit (simulation)")
	}
}

func TestScheduleProperties(t *testing.T) {
	for _, s := range []Strategy{Sequential, OneToOne, Proportional} {
		for _, sizes := range [][2]int{{7, 21}, {1, 10}, {10, 1}, {5, 5}, {0, 3}, {3, 0}} {
			sched := schedule(s, sizes[0], sizes[1])
			if len(sched) != sizes[0]+sizes[1] {
				t.Fatalf("%v %v: schedule length %d", s, sizes, len(sched))
			}
			var a, b int
			for _, left := range sched {
				if left {
					a++
				} else {
					b++
				}
			}
			if a != sizes[0] || b != sizes[1] {
				t.Fatalf("%v %v: schedule counts %d/%d", s, sizes, a, b)
			}
		}
	}
	// Proportional with a 1:3 ratio interleaves 1 then 3 (Ex. 12).
	sched := schedule(Proportional, 7, 21)
	if !sched[0] || sched[1] || sched[2] || sched[3] || !sched[4] {
		t.Fatalf("proportional 7:21 schedule wrong prefix: %v", sched[:5])
	}
}

func TestTraceRecordsSidesAndNodes(t *testing.T) {
	res, err := Check(algorithms.QFT(3), algorithms.QFTCompiled(3), Proportional)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 28 {
		t.Fatalf("trace length %d, want 28 (7 + 21 gates)", len(res.Trace))
	}
	var left, right int
	for _, r := range res.Trace {
		switch r.Side {
		case "G":
			left++
		case "G'":
			right++
		default:
			t.Fatalf("unexpected side %q", r.Side)
		}
		if r.Nodes <= 0 {
			t.Fatalf("trace record without node count: %+v", r)
		}
	}
	if left != 7 || right != 21 {
		t.Fatalf("trace sides %d/%d, want 7/21", left, right)
	}
}

func TestSimulationCheckFindsCounterexample(t *testing.T) {
	a := qc.New(3, 0)
	a.X(0)
	b := qc.New(3, 0)
	b.X(1)
	ok, _, err := SimulationCheck(a, b, 16, 99)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("simulation check missed an obvious difference")
	}
	ok, _, err = SimulationCheck(algorithms.QFT(3), algorithms.QFTCompiled(3), 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("simulation check falsified equivalent circuits")
	}
}

func TestLargerQFTAllStrategies(t *testing.T) {
	qft := algorithms.QFT(5)
	comp := algorithms.QFTCompiled(5)
	for _, s := range []Strategy{Proportional, Lookahead} {
		res, err := Check(qft, comp, s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatalf("%v: QFT5 reported non-equivalent", s)
		}
		cons, err := Check(qft, comp, Construction)
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakNodes >= cons.PeakNodes {
			t.Fatalf("%v: alternating peak %d not below construction peak %d", s, res.PeakNodes, cons.PeakNodes)
		}
	}
}

func TestRandomCircuitSelfEquivalence(t *testing.T) {
	// A circuit is equivalent to itself under every strategy, and to
	// its double inverse.
	c := algorithms.RandomCircuit(4, 4, 3)
	inv, err := c.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	invinv, err := inv.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range allStrategies {
		res, err := Check(c, invinv, s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatalf("%v: circuit not equivalent to its double inverse", s)
		}
	}
}

// TestOptimizerCertification: DD-based equivalence checking certifies
// the qc.Optimize pass on random circuits — the compilation-flow
// verification scenario that motivates Sec. III-C.
func TestOptimizerCertification(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		c := algorithms.RandomCircuit(4, 5, seed)
		// Inject redundancy so the optimizer has work to do.
		c.H(0)
		c.H(0)
		c.T(1)
		c.Gate(qc.Tdg, nil, 1)
		opt, _ := qc.Optimize(c)
		res, err := Check(c, opt, Proportional)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatalf("seed %d: optimizer broke the circuit", seed)
		}
	}
}

// TestCompilePassCertification: CompileNative on random CP/SWAP-heavy
// circuits is certified equivalent by the alternating scheme — the
// Fig. 5 scenario generalized beyond the QFT.
func TestCompilePassCertification(t *testing.T) {
	rng := newSplitMix(1234)
	for round := 0; round < 6; round++ {
		c := qc.New(4, 0)
		for g := 0; g < 12; g++ {
			switch rng.next() % 4 {
			case 0:
				c.H(int(rng.next() % 4))
			case 1:
				a := int(rng.next() % 4)
				b := (a + 1 + int(rng.next()%3)) % 4
				theta := float64(rng.next()%16+1) / 16 * 3.14159
				c.Phase(theta, a, qc.Control{Qubit: b})
			case 2:
				a := int(rng.next() % 4)
				b := (a + 1 + int(rng.next()%3)) % 4
				c.SwapGate(a, b)
			default:
				c.T(int(rng.next() % 4))
			}
		}
		compiled, err := qc.CompileNative(c, qc.CompileOptions{EmitBarriers: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Strategy{Proportional, Lookahead} {
			res, err := Check(c, compiled, s)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Equivalent {
				t.Fatalf("round %d strategy %v: compilation broke the circuit", round, s)
			}
		}
	}
}

// TestMappedCircuitEquivalence: a qubit-mapped circuit (the "mapping"
// step of compilation flows) is equivalent to the original once
// conjugated with the wire permutation realized as SWAPs.
func TestMappedCircuitEquivalence(t *testing.T) {
	orig := algorithms.QFT(3)
	perm := []int{2, 0, 1}
	mapped, err := orig.Remap(perm)
	if err != nil {
		t.Fatal(err)
	}
	p, err := qc.PermutationCircuit(perm)
	if err != nil {
		t.Fatal(err)
	}
	inv := []int{0, 0, 0}
	for v, to := range perm {
		inv[to] = v
	}
	pInv, err := qc.PermutationCircuit(inv)
	if err != nil {
		t.Fatal(err)
	}
	combined := qc.New(3, 0)
	if err := combined.AppendCircuit(p); err != nil {
		t.Fatal(err)
	}
	if err := combined.AppendCircuit(mapped); err != nil {
		t.Fatal(err)
	}
	if err := combined.AppendCircuit(pInv); err != nil {
		t.Fatal(err)
	}
	res, err := Check(combined, orig, Proportional)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		// Try the opposite conjugation order to pin the convention.
		other := qc.New(3, 0)
		_ = other.AppendCircuit(pInv)
		_ = other.AppendCircuit(mapped)
		_ = other.AppendCircuit(p)
		res2, err := Check(other, orig, Proportional)
		if err != nil {
			t.Fatal(err)
		}
		if !res2.Equivalent {
			t.Fatal("mapped circuit not equivalent under either conjugation")
		}
		t.Fatal("conjugation convention flipped: PermutationCircuit documentation is wrong")
	}
	// Sanity: the mapped circuit alone is NOT equivalent.
	alone, err := Check(mapped, orig, Proportional)
	if err != nil {
		t.Fatal(err)
	}
	if alone.Equivalent {
		t.Fatal("mapped circuit wrongly equivalent without conjugation")
	}
}
