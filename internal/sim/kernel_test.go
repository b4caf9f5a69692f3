package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
)

// randUnitaryCircuit builds a random measurement-free circuit mixing
// Clifford+T gates, controlled rotations (multi-controlled, positive
// and negative polarity) and Swaps — the gate families the kernel and
// the generic path must agree on.
func randUnitaryCircuit(rng *rand.Rand, n, ops int) *qc.Circuit {
	c := qc.New(n, 0)
	single := []qc.Gate{qc.X, qc.Y, qc.Z, qc.H, qc.S, qc.Sdg, qc.T, qc.Tdg}
	rot := []qc.Gate{qc.RX, qc.RY, qc.RZ, qc.P}
	for len(c.Ops) < ops {
		switch rng.Intn(4) {
		case 0: // plain Clifford+T
			c.Gate(single[rng.Intn(len(single))], nil, rng.Intn(n))
		case 1: // parameterized rotation
			c.Gate(rot[rng.Intn(len(rot))], []float64{rng.Float64() * 2 * math.Pi}, rng.Intn(n))
		case 2: // controlled gate (1–2 controls, mixed polarity)
			if n < 2 {
				continue
			}
			perm := rng.Perm(n)
			target := perm[0]
			k := 1 + rng.Intn(2)
			if k > n-1 {
				k = n - 1
			}
			ctl := make([]qc.Control, k)
			for i := 0; i < k; i++ {
				ctl[i] = qc.Control{Qubit: perm[1+i], Neg: rng.Intn(2) == 1}
			}
			g := rot[rng.Intn(len(rot))]
			c.Gate(g, []float64{rng.Float64() * 2 * math.Pi}, target, ctl...)
		default: // Swap, lowered to three kernel CNOTs
			if n < 2 {
				continue
			}
			perm := rng.Perm(n)
			c.SwapGate(perm[0], perm[1])
		}
	}
	return c
}

// TestKernelMatchesGenericRandomCircuits runs random circuits once
// through the ApplyGate kernel and once through the generic
// MakeGateDD+MultMV oracle and requires identical final amplitudes.
func TestKernelMatchesGenericRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 10; n++ {
		for trial := 0; trial < 3; trial++ {
			circ := randUnitaryCircuit(rng, n, 20)
			fast := New(circ)
			if _, err := fast.RunToEnd(); err != nil {
				t.Fatalf("n=%d trial=%d kernel run: %v", n, trial, err)
			}
			slow := New(circ, WithGenericApply())
			if _, err := slow.RunToEnd(); err != nil {
				t.Fatalf("n=%d trial=%d generic run: %v", n, trial, err)
			}
			a, b := fast.Amplitudes(), slow.Amplitudes()
			for i := range a {
				if d := a[i] - b[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-20 {
					t.Fatalf("n=%d trial=%d amplitude %d differs: kernel %v generic %v", n, trial, i, a[i], b[i])
				}
			}
		}
	}
}

// TestNoiseRespectsBudget is the regression test for the unchecked
// MultMV that used to sit on the noise-injection path: an injected
// error on a state already at the SetMaxNodes cap must surface
// dd.ErrResourceExhausted instead of silently growing the tables.
func TestNoiseRespectsBudget(t *testing.T) {
	// Build a state of nontrivial size without any budget…
	circ := algorithms.QFTCompiled(8)
	s := New(circ)
	if _, err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	// …then arm a budget below the live table size: the injection path
	// must refuse, exactly like a circuit gate would.
	s.Pkg().SetMaxNodes(2)
	err := s.injectGate(qc.H, 0)
	if err == nil {
		t.Fatal("injectGate ignored the node budget")
	}
	if !errors.Is(err, dd.ErrResourceExhausted) {
		t.Fatalf("injectGate error %v does not match dd.ErrResourceExhausted", err)
	}
}

// TestRunNoisyPropagatesBudget: the trajectory driver surfaces a
// budget exhaustion from inside a noisy run as an error.
func TestRunNoisyPropagatesBudget(t *testing.T) {
	circ := algorithms.QFTCompiled(8)
	_, err := RunNoisy(circ, NoiseModel{Depolarizing: 1}, 3, 11, WithMaxNodes(8))
	if err == nil {
		t.Fatal("RunNoisy finished under an impossible node budget")
	}
	if !errors.Is(err, dd.ErrResourceExhausted) {
		t.Fatalf("RunNoisy error %v does not match dd.ErrResourceExhausted", err)
	}
}

// TestRunNoisyKernelMatchesGeneric: identical seeds must yield
// identical trajectory ensembles on both gate-application paths (the
// sampled Pauli sequence only depends on the rng, and each pure-state
// trajectory is canonical).
func TestRunNoisyKernelMatchesGeneric(t *testing.T) {
	circ := algorithms.GHZ(4)
	a, err := RunNoisy(circ, NoiseModel{Depolarizing: 0.05, BitFlip: 0.02}, 200, 13)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNoisy(circ, NoiseModel{Depolarizing: 0.05, BitFlip: 0.02}, 200, 13, WithGenericApply())
	if err != nil {
		t.Fatal(err)
	}
	if a.ErrorEvents != b.ErrorEvents {
		t.Fatalf("error events differ: kernel %d generic %d", a.ErrorEvents, b.ErrorEvents)
	}
	if len(a.Counts) != len(b.Counts) {
		t.Fatalf("count maps differ: %v vs %v", a.Counts, b.Counts)
	}
	for k, v := range a.Counts {
		if b.Counts[k] != v {
			t.Fatalf("counts for %b differ: kernel %d generic %d", k, v, b.Counts[k])
		}
	}
}
