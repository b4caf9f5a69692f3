package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/linalg"
	"quantumdd/internal/qc"
)

// bornProbs returns the dense Born distribution of a unitary circuit's
// final state, computed with the internal/linalg array baseline.
func bornProbs(t *testing.T, circ *qc.Circuit) []float64 {
	t.Helper()
	v := linalg.ZeroState(circ.NQubits)
	for i := range circ.Ops {
		op := &circ.Ops[i]
		if op.Kind != qc.KindGate || op.Cond != nil || op.Gate == qc.Swap {
			t.Fatalf("bornProbs: unsupported op %s", op)
		}
		pos, neg := splitControls(op)
		linalg.ApplyControlledGate(v, qc.Matrix2(op.Gate, op.Params), op.Targets[0], pos, neg)
	}
	probs := make([]float64, len(v))
	for i, a := range v {
		probs[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return probs
}

// splitControls returns an op's positive and negative control qubits,
// the form the linalg baselines take.
func splitControls(op *qc.Op) (pos, neg []int) {
	for _, c := range op.Controls {
		if c.Neg {
			neg = append(neg, c.Qubit)
		} else {
			pos = append(pos, c.Qubit)
		}
	}
	return pos, neg
}

// within5Sigma reports whether an observed binomial count over n
// trials is within 5σ of its expectation n·p.
func within5Sigma(count, n int, p float64) bool {
	sigma := math.Sqrt(float64(n) * p * (1 - p))
	return math.Abs(float64(count)-float64(n)*p) <= 5*sigma
}

// TestEnsembleFitsBornProbabilities is a goodness-of-fit check of the
// per-trajectory streams: a noiseless ensemble samples the final state
// once per trajectory, so every outcome count is binomial in the dense
// Born probability. Outcomes of probability zero must never appear.
func TestEnsembleFitsBornProbabilities(t *testing.T) {
	skewed := qc.New(3, 0)
	skewed.Gate(qc.RY, []float64{1.1}, 0).CX(0, 1).Gate(qc.RY, []float64{0.4}, 2)
	const trajectories = 20000
	for _, circ := range []*qc.Circuit{algorithms.Bell(), algorithms.GHZ(3), skewed} {
		res, err := RunNoisy(circ, NoiseModel{}, trajectories, 11)
		if err != nil {
			t.Fatal(err)
		}
		probs := bornProbs(t, circ)
		total := 0
		for idx, n := range res.Counts {
			if idx < 0 || int(idx) >= len(probs) || probs[idx] < 1e-12 {
				t.Fatalf("%s: sampled impossible outcome %d (%d times)", circ.Name, idx, n)
			}
			total += n
		}
		if total != trajectories {
			t.Fatalf("%s: %d samples, want %d", circ.Name, total, trajectories)
		}
		for idx, p := range probs {
			if p < 1e-12 {
				continue
			}
			if n := res.Counts[int64(idx)]; !within5Sigma(n, trajectories, p) {
				t.Errorf("%s: outcome %d sampled %d times, Born expectation %.1f", circ.Name, idx, n, p*trajectories)
			}
		}
	}
}

// densityProbs returns the final-register distribution of a noisy
// ensemble computed without trajectories: the circuit runs on the
// dense linalg.Mixed reference, with the Pauli channel samplePauli
// draws from applied to every touched qubit after every gate op,
// targets first, then controls — also after a classically controlled
// gate whose condition fails, as the trajectory loop does.
func densityProbs(t *testing.T, circ *qc.Circuit, model NoiseModel) []float64 {
	t.Helper()
	m := linalg.NewMixed(circ.NQubits)
	third := model.Depolarizing / 3
	px, py, pz := third+model.BitFlip, third, third+model.PhaseFlip
	for i := range circ.Ops {
		op := &circ.Ops[i]
		switch op.Kind {
		case qc.KindBarrier:
		case qc.KindMeasure:
			m.Measure(op.Targets[0], op.Cbit)
		case qc.KindReset:
			m.Reset(op.Targets[0])
		case qc.KindGate:
			if op.Gate == qc.Swap {
				t.Fatalf("densityProbs: unsupported op %s", op)
			}
			var cond func(uint64) bool
			if c := op.Cond; c != nil {
				cond = func(rec uint64) bool {
					var v uint64
					for j, b := range c.Bits {
						v |= (rec >> uint(b) & 1) << uint(j)
					}
					return v == c.Value
				}
			}
			pos, neg := splitControls(op)
			m.Apply(linalg.ExtendGate(circ.NQubits, qc.Matrix2(op.Gate, op.Params), op.Targets[0], pos, neg), cond)
			for j := 0; j < len(op.Targets)+len(op.Controls); j++ {
				m.PauliChannel(touchedQubit(op, j), px, py, pz)
			}
		}
	}
	return m.Probabilities()
}

// TestNoisyFitsDensityMatrix checks the noisy engine against an
// independent oracle: every outcome count of an ensemble is binomial
// in the diagonal of the dense density-matrix reference, within 5σ,
// and outcomes of probability zero never appear. Teleport covers
// mid-circuit measurement and classical control.
func TestNoisyFitsDensityMatrix(t *testing.T) {
	const trajectories = 20000
	cases := []struct {
		circ  *qc.Circuit
		model NoiseModel
	}{
		{algorithms.GHZ(3), NoiseModel{Depolarizing: 0.05}},
		{algorithms.Bell(), NoiseModel{BitFlip: 0.1, PhaseFlip: 0.05}},
		{algorithms.Teleport(1.0, 0.3), NoiseModel{Depolarizing: 0.05}},
		{algorithms.Teleport(2.2, -0.9), NoiseModel{BitFlip: 0.03, PhaseFlip: 0.03}},
	}
	for _, c := range cases {
		res, err := RunNoisy(c.circ, c.model, trajectories, 29)
		if err != nil {
			t.Fatal(err)
		}
		probs := densityProbs(t, c.circ, c.model)
		for idx, n := range res.Counts {
			if idx < 0 || int(idx) >= len(probs) || probs[idx] < 1e-12 {
				t.Fatalf("%s %+v: sampled impossible outcome %d (%d times)", c.circ.Name, c.model, idx, n)
			}
		}
		for idx, p := range probs {
			if p < 1e-12 {
				continue
			}
			if n := res.Counts[int64(idx)]; !within5Sigma(n, trajectories, p) {
				t.Errorf("%s %+v: outcome %d sampled %d times, density-matrix expectation %.1f",
					c.circ.Name, c.model, idx, n, p*trajectories)
			}
		}
	}
}

// TestBitFlipFitsBinomial: Z leaves |0⟩ alone, so under bit-flip noise
// p = 0.5 each trajectory ends in |1⟩ exactly when its one error fired.
// The count of |1⟩ is Binomial(n, 0.5) and equals the error tally.
func TestBitFlipFitsBinomial(t *testing.T) {
	c := qc.New(1, 0)
	c.Z(0)
	const trajectories = 20000
	res, err := RunNoisy(c, NoiseModel{BitFlip: 0.5}, trajectories, 5)
	if err != nil {
		t.Fatal(err)
	}
	ones := res.Counts[1]
	if ones+res.Counts[0] != trajectories {
		t.Fatalf("counts %v do not cover %d trajectories", res.Counts, trajectories)
	}
	if ones != res.ErrorEvents {
		t.Fatalf("%d flipped outcomes but %d error events", ones, res.ErrorEvents)
	}
	if !within5Sigma(ones, trajectories, 0.5) {
		t.Fatalf("%d of %d trajectories flipped, want about half", ones, trajectories)
	}
}

// TestDepolarizingEventRate: every qubit a gate touches draws one error
// with probability p, so the error tally over a GHZ(3) ensemble (five
// touched qubits per trajectory: H, then two CNOTs) is binomial with
// mean p·5·n.
func TestDepolarizingEventRate(t *testing.T) {
	const trajectories = 20000
	const p = 0.1
	circ := algorithms.GHZ(3)
	touched := 0
	for _, op := range circ.Ops {
		touched += len(op.Targets) + len(op.Controls)
	}
	if touched != 5 {
		t.Fatalf("GHZ(3) touches %d qubits, want 5", touched)
	}
	res, err := RunNoisy(circ, NoiseModel{Depolarizing: p}, trajectories, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !within5Sigma(res.ErrorEvents, trajectories*touched, p) {
		t.Fatalf("%d error events, expectation %.0f", res.ErrorEvents, p*float64(trajectories*touched))
	}
}

// TestNoisyGoldenDigest pins one seeded ensemble bit for bit, so a
// change of the per-trajectory stream, its seeding or the order of its
// draws is always deliberate.
func TestNoisyGoldenDigest(t *testing.T) {
	res, err := RunNoisy(algorithms.Teleport(1.0, 0.3), NoiseModel{BitFlip: 0.01}, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	// fmt prints map keys in sorted order.
	canon := fmt.Sprintf("trajectories=%d failed=%d events=%d meanNodes=%b counts=%v",
		res.Trajectories, res.Failed, res.ErrorEvents, res.MeanNodes, res.Counts)
	sum := sha256.Sum256([]byte(canon))
	const want = "2988f5d3d4d3d369f0a9505368d7d5cdda6f403a28f2266f9eae9e10a6426d55"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("golden digest %s, want %s\nresult: %s", got, want, canon)
	}
}

// TestPCGSourceSeeding: reseeding restarts a trajectory's stream, Seed
// is trajectory 0, and neighbouring trajectories draw different values.
func TestPCGSourceSeeding(t *testing.T) {
	var a, b pcgSource
	a.seedTrajectory(7, 3)
	first := a.Uint64()
	a.Uint64()
	a.seedTrajectory(7, 3)
	if got := a.Uint64(); got != first {
		t.Fatalf("reseeded stream starts with %#x, want %#x", got, first)
	}
	a.Seed(7)
	b.seedTrajectory(7, 0)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Seed(s) differs from trajectory 0 of ensemble s")
	}
	b.seedTrajectory(7, 4)
	a.seedTrajectory(7, 3)
	if a.Uint64() == b.Uint64() {
		t.Fatal("adjacent trajectories start with the same draw")
	}
	for range 1000 {
		if v := a.Int63(); v < 0 {
			t.Fatalf("Int63 returned negative %d", v)
		}
	}
	// The adapter is a full math/rand source.
	var _ rand.Source64 = &a
}

// TestTrajectoryAllocBytes guards the per-trajectory heap cost of a
// sequential Teleport ensemble: a trajectory should cost its DD work,
// not the seeding of a random source or step history it never reads.
// Per-ensemble setup (the replica engine) is amortized over the
// ensemble.
func TestTrajectoryAllocBytes(t *testing.T) {
	circ := algorithms.Teleport(1.0, 0.3)
	model := NoiseModel{BitFlip: 0.01}
	const trajectories = 2000
	const maxBytes = 1024
	run := func() {
		if _, err := RunNoisy(circ, model, trajectories, 1, WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up lazily built package state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perTraj := float64(after.TotalAlloc-before.TotalAlloc) / trajectories
	t.Logf("%.0f heap bytes, %d allocations per trajectory", perTraj, (after.Mallocs-before.Mallocs)/trajectories)
	if perTraj > maxBytes {
		t.Fatalf("%.0f heap bytes per trajectory, bound %d", perTraj, maxBytes)
	}
}
