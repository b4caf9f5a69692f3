package sim

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
)

// randUnitaryCircuit builds a random measurement-free circuit mixing
// Clifford+T gates, controlled rotations (multi-controlled, positive
// and negative polarity) and Swaps — the gate families the kernel must
// get right.
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

// TestKernelMatchesDenseRandomCircuits runs random circuits through
// the gate-apply kernels and requires the final amplitudes of the
// dense state-vector baseline within 1e-10, global phase included.
func TestKernelMatchesDenseRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 10; n++ {
		for trial := 0; trial < 3; trial++ {
			circ := randUnitaryCircuit(rng, n, 20)
			s := New(circ)
			if _, err := s.RunToEnd(); err != nil {
				t.Fatalf("n=%d trial=%d: %v", n, trial, err)
			}
			got, want := s.Amplitudes(), denseSimulate(circ)
			for i := range want {
				if d := cmplx.Abs(got[i] - want[i]); d > 1e-10 {
					t.Fatalf("n=%d trial=%d amplitude %d: dd %v dense %v (|Δ| = %.3g)", n, trial, i, got[i], want[i], d)
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
