package dd

import (
	"math"
	"math/rand"
	"testing"
)

// lopsided builds a state with one dominant and one tiny branch on the
// top qubit: cos(ε)|0⟩⊗ψ₀ + sin(ε)|1⟩⊗ψ₁.
func lopsided(t *testing.T, p *Pkg, eps float64) VEdge {
	t.Helper()
	n := p.Qubits()
	amps := make([]complex128, 1<<uint(n))
	rng := rand.New(rand.NewSource(9))
	half := len(amps) / 2
	var n0, n1 float64
	for i := 0; i < half; i++ {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		n0 += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
		amps[half+i] = complex(rng.NormFloat64(), rng.NormFloat64())
		n1 += real(amps[half+i])*real(amps[half+i]) + imag(amps[half+i])*imag(amps[half+i])
	}
	c0 := complex(math.Cos(eps)/math.Sqrt(n0), 0)
	c1 := complex(math.Sin(eps)/math.Sqrt(n1), 0)
	for i := 0; i < half; i++ {
		amps[i] *= c0
		amps[half+i] *= c1
	}
	e, err := p.FromVector(amps)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestApproximatePrunesTinyBranch(t *testing.T) {
	p := New(5)
	const eps = 0.01 // tiny |1…⟩ branch with probability sin²(0.01) ≈ 1e-4
	e := lopsided(t, p, eps)
	approx, fidelity, before, after := p.Approximate(e, 1e-3)
	if after >= before {
		t.Fatalf("no pruning: %d -> %d nodes", before, after)
	}
	// The tiny branch is gone: P(q4=1) becomes 0.
	if got := p.ProbOne(approx, 4); got > 1e-12 {
		t.Fatalf("pruned branch still has probability %v", got)
	}
	// Fidelity ≈ cos²(eps) ≈ 0.9999.
	want := math.Cos(eps) * math.Cos(eps)
	if math.Abs(fidelity-want) > 1e-6 {
		t.Fatalf("fidelity = %v, want ≈ %v", fidelity, want)
	}
	// The approximation is renormalized.
	if err := p.CheckUnitVector(approx); err != nil {
		t.Fatal(err)
	}
}

func TestApproximateNoOpBelowThreshold(t *testing.T) {
	p := New(3)
	bellLike := bellStateOn4(New(4))
	_ = bellLike
	e := p.MultMV(p.MakeGateDD(gateH, 2), p.ZeroState())
	approx, fidelity, before, after := p.Approximate(e, 1e-6)
	if approx != e {
		t.Fatalf("balanced state was modified (fidelity %v, %d->%d)", fidelity, before, after)
	}
	if fidelity < 1-1e-12 {
		t.Fatalf("fidelity = %v, want 1", fidelity)
	}
}

func TestApproximateZeroThreshold(t *testing.T) {
	p := New(2)
	e := bellState(t, p)
	approx, fidelity, _, _ := p.Approximate(e, 0)
	if approx != e || fidelity != 1 {
		t.Fatal("threshold 0 must be the identity transformation")
	}
}

func TestApproximateValidation(t *testing.T) {
	p := New(2)
	e := p.ZeroState()
	for _, bad := range []float64{-0.1, 1.0, 2.0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("threshold %v accepted", bad)
				}
			}()
			p.Approximate(e, bad)
		}()
	}
}

func TestApproximateFidelityMonotone(t *testing.T) {
	p := New(6)
	rng := rand.New(rand.NewSource(12))
	e, err := p.FromVector(randomState(rng, 6))
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.0
	for _, th := range []float64{1e-6, 1e-4, 1e-2, 0.05} {
		_, f, _, _ := p.Approximate(e, th)
		if f > prev+1e-9 {
			t.Fatalf("fidelity increased with coarser threshold: %v -> %v at %v", prev, f, th)
		}
		prev = f
	}
	// Even aggressive pruning keeps a normalized state (or empties).
	approx, f, _, after := p.Approximate(e, 0.05)
	if after > 0 {
		if err := p.CheckUnitVector(approx); err != nil {
			t.Fatal(err)
		}
		if f <= 0 || f > 1+1e-9 {
			t.Fatalf("fidelity out of range: %v", f)
		}
	}
}
