package linalg

import (
	"math"
	"math/cmplx"
	"testing"
)

var hGate = [4]complex128{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)}

func approxProbs(t *testing.T, got []float64, want ...float64) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("probabilities %v, want %v", got, want)
		}
	}
}

// TestMixedBellMeasureAndFeedForward: measuring one half of a Bell
// pair splits the state into two records, and an X on the other half
// conditioned on the record disentangles it to |00⟩ or |01⟩.
func TestMixedBellMeasureAndFeedForward(t *testing.T) {
	m := NewMixed(2)
	m.Apply(ExtendGate(2, hGate, 0, nil, nil), nil)
	m.Apply(ExtendGate(2, [4]complex128{0, 1, 1, 0}, 1, []int{0}, nil), nil)
	approxProbs(t, m.Probabilities(), 0.5, 0, 0, 0.5)
	m.Measure(0, 0)
	if len(m.parts) != 2 {
		t.Fatalf("%d records after one measurement, want 2", len(m.parts))
	}
	m.Apply(ExtendGate(2, [4]complex128{0, 1, 1, 0}, 1, nil, nil), func(rec uint64) bool { return rec&1 == 1 })
	approxProbs(t, m.Probabilities(), 0.5, 0.5, 0, 0)
	m.Reset(0)
	approxProbs(t, m.Probabilities(), 1, 0, 0, 0)
	// Measuring the reset qubit into the same bit merges both records
	// into record 0.
	m.Measure(0, 0)
	if tr := real(m.parts[0].At(0, 0)); math.Abs(tr-1) > 1e-12 {
		t.Fatalf("record 0 has trace %v after re-measuring a reset qubit, want 1", tr)
	}
}

// TestMixedPauliChannel: the fully depolarizing channel (X, Y, Z with
// 1/4 each) maps any single-qubit state to I/2, and a certain bit flip
// maps |0⟩ to |1⟩; both keep the trace.
func TestMixedPauliChannel(t *testing.T) {
	m := NewMixed(1)
	m.Apply(ExtendGate(1, [4]complex128{complex(math.Cos(0.4), 0), complex(-math.Sin(0.4), 0), complex(math.Sin(0.4), 0), complex(math.Cos(0.4), 0)}, 0, nil, nil), nil)
	m.PauliChannel(0, 0.25, 0.25, 0.25)
	rho := m.parts[0]
	if math.Abs(real(rho.At(0, 0))-0.5) > 1e-12 || math.Abs(real(rho.At(1, 1))-0.5) > 1e-12 ||
		cmplx.Abs(rho.At(0, 1)) > 1e-12 {
		t.Fatalf("fully depolarized state %v, want I/2", rho.Data)
	}
	flip := NewMixed(1)
	flip.PauliChannel(0, 1, 0, 0)
	approxProbs(t, flip.Probabilities(), 0, 1)
}
