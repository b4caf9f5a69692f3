package sim

import (
	"errors"
	"math"
	"math/cmplx"
	"reflect"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/linalg"
	"quantumdd/internal/qc"
)

const tol = 1e-9

// TestBellWalkthrough reproduces the simulation walk-through of
// Fig. 8: |00⟩ → (H⊗I) → CNOT → measure q0 = 1 → |11⟩.
func TestBellWalkthrough(t *testing.T) {
	circ := algorithms.BellMeasured()
	s := New(circ, WithChooser(func(op *qc.Op, q int, p0, p1 float64) int {
		// The user clicks |1⟩ in the dialog (Fig. 8(c)).
		return 1
	}))
	// Step 1: H.
	ev, err := s.StepForward()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventGate {
		t.Fatalf("event 1 kind = %v", ev.Kind)
	}
	amps := s.Amplitudes()
	if cmplx.Abs(amps[0]-complex(1/math.Sqrt2, 0)) > tol || cmplx.Abs(amps[2]-complex(1/math.Sqrt2, 0)) > tol {
		t.Fatalf("after H: %v, want 1/sqrt2 [1,0,1,0] (Ex. 3)", amps)
	}
	// Step 2: CNOT → Bell state (Fig. 8(b)).
	if _, err := s.StepForward(); err != nil {
		t.Fatal(err)
	}
	amps = s.Amplitudes()
	if cmplx.Abs(amps[0]-complex(1/math.Sqrt2, 0)) > tol || cmplx.Abs(amps[3]-complex(1/math.Sqrt2, 0)) > tol {
		t.Fatalf("after CNOT: %v, want Bell state", amps)
	}
	if n := dd.SizeV(s.State()); n != 3 {
		t.Fatalf("Bell DD has %d nodes, want 3", n)
	}
	// Step 3: measure q0; dialog reports 50/50, chooser picks 1.
	ev, err = s.StepForward()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventMeasure || ev.Outcome != 1 {
		t.Fatalf("measure event wrong: %+v", ev)
	}
	if math.Abs(ev.P0-0.5) > tol || math.Abs(ev.P1-0.5) > tol {
		t.Fatalf("dialog probabilities %v/%v, want 0.5/0.5", ev.P0, ev.P1)
	}
	// Entanglement: q1 now deterministically 1 (Fig. 8(d)).
	ev, err = s.StepForward()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventMeasure || ev.Outcome != 1 {
		t.Fatalf("second measurement should be deterministic 1: %+v", ev)
	}
	amps = s.Amplitudes()
	if cmplx.Abs(amps[3]-1) > tol {
		t.Fatalf("final state %v, want |11>", amps)
	}
	if got := s.Classical(); got[0] != 1 || got[1] != 1 {
		t.Fatalf("classical bits %v, want [1 1]", got)
	}
}

func TestStepBackwardRestoresNonUnitary(t *testing.T) {
	circ := algorithms.BellMeasured()
	s := New(circ, WithChooser(func(op *qc.Op, q int, p0, p1 float64) int { return 0 }))
	if _, err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	if s.Classical()[0] != 0 {
		t.Fatal("setup failed")
	}
	// Undo both measurements: superposition and classical bits return.
	if !s.StepBackward() || !s.StepBackward() {
		t.Fatal("backward step refused")
	}
	if got := s.Classical(); got[0] != -1 || got[1] != -1 {
		t.Fatalf("classical bits not restored: %v", got)
	}
	p1 := s.ProbOne(0)
	if math.Abs(p1-0.5) > tol {
		t.Fatalf("superposition not restored, P(q0=1) = %v", p1)
	}
	// Rewind to start.
	s.Rewind()
	if !s.AtStart() {
		t.Fatal("rewind did not reach start")
	}
	amps := s.Amplitudes()
	if cmplx.Abs(amps[0]-1) > tol {
		t.Fatalf("initial state not restored: %v", amps)
	}
}

// TestRunToBreakStopsAtSpecials steps through a circuit with a barrier
// and a measurement: the event stream marks both as the stops a run to
// the next break ends at, keeps the position in step, and past the end
// yields EventEnd.
func TestRunToBreakStopsAtSpecials(t *testing.T) {
	c := qc.New(2, 1)
	c.H(0).Barrier().X(1).Measure(0, 0).H(1)
	s := New(c, WithSeed(7))
	want := []EventKind{EventGate, EventBarrier, EventGate, EventMeasure, EventGate}
	for i, kind := range want {
		ev, err := s.StepForward()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != kind || ev.OpIndex != i || s.Pos() != i+1 {
			t.Fatalf("step %d: %+v at pos %d, want kind %v", i, ev, s.Pos(), kind)
		}
	}
	if !s.AtEnd() {
		t.Fatal("not at end")
	}
	ev, err := s.StepForward()
	if err != nil || ev.Kind != EventEnd {
		t.Fatalf("past-end step: %+v, %v", ev, err)
	}
}

func TestDeterministicMeasurementSkipsDialog(t *testing.T) {
	c := qc.New(1, 1)
	c.X(0).Measure(0, 0)
	dialogCalled := false
	s := New(c, WithChooser(func(op *qc.Op, q int, p0, p1 float64) int {
		dialogCalled = true
		return 0
	}))
	if _, err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	if dialogCalled {
		t.Fatal("dialog opened for a deterministic measurement")
	}
	if s.Classical()[0] != 1 {
		t.Fatalf("X|0> measured as %d, want 1", s.Classical()[0])
	}
	// Stepping past the end is a no-op event.
	if ev, err := s.StepForward(); err != nil || ev.Kind != EventEnd || s.Pos() != len(c.Ops) {
		t.Fatalf("past-end step: %+v, %v", ev, err)
	}
}

func TestResetSemantics(t *testing.T) {
	// Prepare |+>, reset → |0> regardless of the sampled branch.
	c := qc.New(1, 0)
	c.H(0).Reset(0)
	for seed := int64(0); seed < 10; seed++ {
		s := New(c, WithSeed(seed))
		evs, err := s.RunToEnd()
		if err != nil {
			t.Fatal(err)
		}
		last := evs[len(evs)-1]
		if last.Kind != EventReset {
			t.Fatalf("last event kind %v", last.Kind)
		}
		if math.Abs(last.P0-0.5) > tol {
			t.Fatalf("reset dialog probabilities wrong: %v", last.P0)
		}
		amps := s.Amplitudes()
		if math.Abs(cmplx.Abs(amps[0])-1) > tol {
			t.Fatalf("seed %d: post-reset state %v, want |0>", seed, amps)
		}
	}
}

// TestResetHonoursBudget steps a reset forced to outcome 1 on a dense
// 10-qubit state with the node budget ten nodes above the live tables:
// the projection rebuilds every level above qubit 0, so the step must
// abort with ErrResourceExhausted and leave the state, the position,
// the history and the classical bits as they were, within the budget.
// Without the budget the same step succeeds.
func TestResetHonoursBudget(t *testing.T) {
	const n = 10
	c := qc.New(n, 1)
	for layer := 0; layer < 2; layer++ {
		for q := 0; q < n; q++ {
			c.Gate(qc.RY, []float64{0.3 + 0.17*float64(q+n*layer)}, q)
			c.Gate(qc.RZ, []float64{0.5 + 0.29*float64(q+n*layer)}, q)
		}
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
		}
	}
	c.Reset(0)
	last := len(c.Ops) - 1
	s := New(c, WithChooser(func(*qc.Op, int, float64, float64) int { return 1 }))
	for s.Pos() < last {
		if _, err := s.StepForward(); err != nil {
			t.Fatal(err)
		}
	}
	p := s.Pkg()
	p.GarbageCollect()
	p.SetMaxNodes(p.LiveNodes() + 10)
	before, classical, hist := s.State(), s.Classical(), len(s.history)
	_, err := s.StepForward()
	if !errors.Is(err, dd.ErrResourceExhausted) {
		t.Fatalf("reset under a budget of %d: err = %v, want ErrResourceExhausted", p.MaxNodes(), err)
	}
	if s.State() != before || s.Pos() != last || len(s.history) != hist || !reflect.DeepEqual(s.Classical(), classical) {
		t.Fatal("the aborted reset changed the simulator")
	}
	if p.LiveNodes() > p.MaxNodes() {
		t.Fatalf("the aborted reset left %d live nodes, budget %d", p.LiveNodes(), p.MaxNodes())
	}
	p.SetMaxNodes(0)
	if ev, err := s.StepForward(); err != nil || ev.Kind != EventReset || ev.Outcome != 1 {
		t.Fatalf("unbudgeted reset: %+v, %v", ev, err)
	}
}

func TestClassicalControl(t *testing.T) {
	// measure |1> into c, then conditionally flip q1.
	c := qc.New(2, 1)
	c.X(0).Measure(0, 0)
	c.GateIf(qc.X, nil, 1, []int{0}, 1)
	s := New(c, WithSeed(1))
	evs, err := s.RunToEnd()
	if err != nil {
		t.Fatal(err)
	}
	if evs[len(evs)-1].Kind != EventCondApply {
		t.Fatalf("conditional should fire: %+v", evs[len(evs)-1])
	}
	amps := s.Amplitudes()
	if cmplx.Abs(amps[3]-1) > tol {
		t.Fatalf("state %v, want |11>", amps)
	}
	// Condition not met → skip.
	c2 := qc.New(2, 1)
	c2.Measure(0, 0)
	c2.GateIf(qc.X, nil, 1, []int{0}, 1)
	s2 := New(c2, WithSeed(1))
	evs, err = s2.RunToEnd()
	if err != nil {
		t.Fatal(err)
	}
	if evs[len(evs)-1].Kind != EventCondSkip {
		t.Fatalf("conditional should skip: %+v", evs[len(evs)-1])
	}
}

// TestTeleportation: for a sample of payload states, Bob's qubit ends
// in Alice's input state for every measurement outcome (E10).
func TestTeleportation(t *testing.T) {
	angles := []struct{ theta, phi float64 }{
		{0, 0}, {math.Pi, 0}, {math.Pi / 3, math.Pi / 5}, {2.1, -0.7},
	}
	for _, a := range angles {
		for seed := int64(0); seed < 8; seed++ {
			circ := algorithms.Teleport(a.theta, a.phi)
			s := New(circ, WithSeed(seed))
			if _, err := s.RunToEnd(); err != nil {
				t.Fatal(err)
			}
			amps := s.Amplitudes()
			// Bob's qubit is q0. Marginalize: the final state is
			// |q2 q1⟩ ⊗ |ψ⟩ with q2,q1 collapsed, so amplitudes are
			// concentrated on two adjacent indices.
			u := qc.Matrix2(qc.U, []float64{a.theta, a.phi, 0})
			want0, want1 := u[0], u[2] // U|0> = [u00, u10]
			var got0, got1 complex128
			for idx, amp := range amps {
				if cmplx.Abs(amp) < 1e-12 {
					continue
				}
				if idx&1 == 0 {
					got0 = amp
				} else {
					got1 = amp
				}
			}
			// Compare up to global phase.
			ip := cmplx.Conj(got0)*want0 + cmplx.Conj(got1)*want1
			if math.Abs(cmplx.Abs(ip)-1) > 1e-6 {
				t.Fatalf("teleport(θ=%v,φ=%v,seed=%d): Bob fidelity |<ψ|φ>| = %v", a.theta, a.phi, seed, cmplx.Abs(ip))
			}
		}
	}
}

func TestSimAgainstDenseBaseline(t *testing.T) {
	// Random unitary circuits: DD simulation must match the dense
	// state-vector simulator exactly.
	for seed := int64(1); seed <= 5; seed++ {
		circ := algorithms.RandomCircuit(4, 3, seed)
		s := New(circ)
		if _, err := s.RunToEnd(); err != nil {
			t.Fatal(err)
		}
		got := s.Amplitudes()
		want := denseSimulate(circ)
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("seed %d amplitude %d: dd %v vs dense %v", seed, i, got[i], want[i])
			}
		}
	}
}

func denseSimulate(c *qc.Circuit) linalg.Vector {
	v := linalg.ZeroState(c.NQubits)
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Kind != qc.KindGate {
			continue
		}
		var pos, neg []int
		for _, ctl := range op.Controls {
			if ctl.Neg {
				neg = append(neg, ctl.Qubit)
			} else {
				pos = append(pos, ctl.Qubit)
			}
		}
		if op.Gate == qc.Swap {
			a, b := op.Targets[0], op.Targets[1]
			x := qc.Matrix2(qc.X, nil)
			linalg.ApplyControlledGate(v, x, b, append(append([]int{}, pos...), a), neg)
			linalg.ApplyControlledGate(v, x, a, append(append([]int{}, pos...), b), neg)
			linalg.ApplyControlledGate(v, x, b, append(append([]int{}, pos...), a), neg)
			continue
		}
		linalg.ApplyControlledGate(v, qc.Matrix2(op.Gate, op.Params), op.Targets[0], pos, neg)
	}
	return v
}

func TestGHZAndWStates(t *testing.T) {
	// GHZ(5): amplitudes 1/√2 on |00000> and |11111>.
	s := New(algorithms.GHZ(5))
	if _, err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	amps := s.Amplitudes()
	if cmplx.Abs(amps[0]-complex(1/math.Sqrt2, 0)) > tol || cmplx.Abs(amps[31]-complex(1/math.Sqrt2, 0)) > tol {
		t.Fatalf("GHZ amplitudes wrong: %v %v", amps[0], amps[31])
	}
	// A GHZ DD needs the root plus two nodes per remaining level (the
	// all-zero and all-one continuations): 2n-1 nodes — linear in n,
	// versus the 2^n dense vector.
	if n := dd.SizeV(s.State()); n != 9 {
		t.Fatalf("GHZ(5) DD has %d nodes, want 9 = 2*5-1", n)
	}
	// W(4): amplitude 1/2 on each single-excitation basis state.
	s = New(algorithms.WState(4))
	if _, err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	amps = s.Amplitudes()
	for _, idx := range []int{1, 2, 4, 8} {
		if math.Abs(cmplx.Abs(amps[idx])-0.5) > 1e-9 {
			t.Fatalf("W(4) amplitude at %d = %v, want magnitude 1/2", idx, amps[idx])
		}
	}
}

func TestBernsteinVazirani(t *testing.T) {
	const n = 6
	const secret = 0b101101
	s := New(algorithms.BernsteinVazirani(n, secret), WithSeed(3))
	if _, err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	var got uint64
	for i, b := range s.Classical() {
		if b == 1 {
			got |= 1 << uint(i)
		}
	}
	if got != secret {
		t.Fatalf("BV recovered %06b, want %06b", got, secret)
	}
}

func TestGroverAmplifiesMarked(t *testing.T) {
	const n = 4
	const marked = 0b1010
	s := New(algorithms.Grover(n, marked))
	if _, err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	counts := s.Sample(400)
	if counts[marked] < 300 {
		t.Fatalf("Grover: marked state sampled %d/400 times", counts[marked])
	}
}

func TestAdder(t *testing.T) {
	// The adder acts on basis states: verify b += a on a few inputs
	// by preparing inputs with X gates.
	const n = 2
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			circ := qc.New(2*n+2, 0)
			for i := 0; i < n; i++ {
				if a>>uint(i)&1 == 1 {
					circ.X(1 + 2*i)
				}
				if b>>uint(i)&1 == 1 {
					circ.X(2 + 2*i)
				}
			}
			add := algorithms.Adder(n)
			circ.Ops = append(circ.Ops, add.Ops...)
			s := New(circ)
			if _, err := s.RunToEnd(); err != nil {
				t.Fatal(err)
			}
			amps := s.Amplitudes()
			idx := -1
			for i, amp := range amps {
				if cmplx.Abs(amp) > 0.5 {
					idx = i
					break
				}
			}
			if idx < 0 {
				t.Fatal("no definite output state")
			}
			sum := a + b
			gotB := idx >> 2 & 1 << 0
			gotB = (idx >> 2 & 1) | (idx>>4&1)<<1
			gotCarry := idx >> (2*n + 1) & 1
			gotSum := gotB | gotCarry<<n
			if gotSum != sum {
				t.Fatalf("adder %d+%d: got %d (state %0*b)", a, b, gotSum, 2*n+2, idx)
			}
		}
	}
}

// TestSimulatorGC runs a circuit whose garbage passes dd.GCFloor, so
// the simulator's watermark collects mid-run. The final state, and a
// history snapshot stepped back to across those collections, must
// still equal the dense reference.
func TestSimulatorGC(t *testing.T) {
	circ := algorithms.RandomCircuit(8, 40, 11)
	s := New(circ)
	if _, err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	if s.Pkg().Stats().GCRuns == 0 {
		t.Fatalf("no collection with %d live nodes at the end", s.Pkg().LiveNodes())
	}
	assertDense := func(got []complex128, want linalg.Vector, what string) {
		t.Helper()
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > tol {
				t.Fatalf("%s amplitude %d: dd %v vs dense %v", what, i, got[i], want[i])
			}
		}
	}
	assertDense(s.Amplitudes(), denseSimulate(circ), "final")
	half := len(circ.Ops) / 2
	for s.Pos() > half {
		s.StepBackward()
	}
	prefix := *circ
	prefix.Ops = circ.Ops[:half]
	assertDense(s.Amplitudes(), denseSimulate(&prefix), "stepped-back")
}

func TestChooserValidation(t *testing.T) {
	c := qc.New(1, 1)
	c.H(0).Measure(0, 0)
	s := New(c, WithChooser(func(op *qc.Op, q int, p0, p1 float64) int { return 7 }))
	if _, err := s.RunToEnd(); err == nil {
		t.Fatal("invalid chooser outcome not rejected")
	}
}

func TestRunHelper(t *testing.T) {
	classical, final, p, err := Run(algorithms.BellMeasured(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if classical[0] != classical[1] {
		t.Fatalf("Bell measurement outcomes disagree: %v", classical)
	}
	if err := p.CheckUnitVector(final); err != nil {
		t.Fatal(err)
	}
}

func TestPeakNodes(t *testing.T) {
	// The QFT intermediate states grow and then shrink after
	// measurement-free runs; the peak must be at least the final size
	// and at least the largest intermediate.
	s := New(algorithms.QFT(6))
	if got := s.PeakNodes(); got != dd.SizeV(s.State()) {
		t.Fatalf("initial peak %d != initial size", got)
	}
	if _, err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	if s.PeakNodes() < dd.SizeV(s.State()) {
		t.Fatalf("peak %d below final size %d", s.PeakNodes(), dd.SizeV(s.State()))
	}
	// Collapsing shrinks the state; the peak must remember the high
	// point. An entangled 4-qubit state has ~2^n nodes; measuring all
	// qubits collapses it to a 4-node basis state.
	c := algorithms.Entangled(4, 3, 5).Clone()
	c.NClbits = 4
	for q := 0; q < 4; q++ {
		c.Measure(q, q)
	}
	s2 := New(c, WithSeed(1))
	if _, err := s2.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	if s2.PeakNodes() <= dd.SizeV(s2.State()) {
		t.Fatalf("peak %d did not exceed collapsed size %d", s2.PeakNodes(), dd.SizeV(s2.State()))
	}
}

func TestApproximateSimulation(t *testing.T) {
	circ := algorithms.Entangled(10, 5, 7)
	exact := New(circ)
	if _, err := exact.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	approx := New(circ, WithApproximation(1e-4))
	if _, err := approx.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	if approx.ApproxFidelity() >= 1 {
		t.Fatalf("approximation never fired (fidelity %v)", approx.ApproxFidelity())
	}
	if approx.ApproxFidelity() < 0.5 {
		t.Fatalf("approximation too destructive: %v", approx.ApproxFidelity())
	}
	if dd.SizeV(approx.State()) >= dd.SizeV(exact.State()) {
		t.Fatalf("approximation did not shrink the diagram: %d vs %d",
			dd.SizeV(approx.State()), dd.SizeV(exact.State()))
	}
	// The reported fidelity lower-bounds... (it is a product of exact
	// per-step fidelities, so compare to the true overlap loosely).
	trueFid := exact.Pkg().Fidelity(exact.State(), mustImport(t, exact.Pkg(), approx))
	if math.Abs(trueFid-approx.ApproxFidelity()) > 0.3 {
		t.Fatalf("fidelity estimate %v far from true %v", approx.ApproxFidelity(), trueFid)
	}
	// Exact mode reports fidelity 1.
	if exact.ApproxFidelity() != 1 {
		t.Fatalf("exact run fidelity %v", exact.ApproxFidelity())
	}
}

// mustImport moves a state between packages via the binary codec.
func mustImport(t *testing.T, p *dd.Pkg, from *Simulator) dd.VEdge {
	t.Helper()
	e, err := p.DecodeVectorBinary(from.Pkg().AppendVectorBinary(nil, from.State()))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestQAOAComplexValues guards the complex-table cost of a run:
// only the child weights of new nodes, the addition keys and each
// gate's returned root go through the table. QAOA MaxCut on ring(8) at
// fixed angles, run to the end, stored 10491 canonical reals when
// every intermediate result was canonicalized too; the guard allows
// 60 % of that.
func TestQAOAComplexValues(t *testing.T) {
	const canonicalizedEverywhere = 10491
	c, err := algorithms.QAOAMaxCut(algorithms.Ring(8), []float64{0.7}, []float64{0.3})
	if err != nil {
		t.Fatal(err)
	}
	s := New(c, WithSeed(1))
	if _, err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	got := s.Pkg().Stats().ComplexValues
	t.Logf("%d complex values, %d with every intermediate canonicalized", got, canonicalizedEverywhere)
	if got > canonicalizedEverywhere*6/10 {
		t.Fatalf("%d complex values, bound %d", got, canonicalizedEverywhere*6/10)
	}
}
