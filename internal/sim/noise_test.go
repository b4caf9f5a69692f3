package sim

import (
	"math"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/qc"
)

func TestNoiselessTrajectoriesMatchExact(t *testing.T) {
	res, err := RunNoisy(algorithms.Bell(), NoiseModel{}, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorEvents != 0 {
		t.Fatalf("noiseless run injected %d errors", res.ErrorEvents)
	}
	if res.Counts[1] != 0 || res.Counts[2] != 0 {
		t.Fatalf("impossible outcomes sampled: %v", res.Counts)
	}
	if res.Counts[0] < 800 || res.Counts[3] < 800 {
		t.Fatalf("counts far from 50/50: %v", res.Counts)
	}
}

func TestCertainBitFlip(t *testing.T) {
	// X on q0 followed by a guaranteed bit-flip error restores |0⟩.
	c := qc.New(1, 0)
	c.X(0)
	res, err := RunNoisy(c, NoiseModel{BitFlip: 1}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0] != 100 {
		t.Fatalf("certain bit flip: counts %v, want all |0>", res.Counts)
	}
	if res.ErrorEvents != 100 {
		t.Fatalf("error events = %d, want 100", res.ErrorEvents)
	}
}

func TestDepolarizingDegradesGHZ(t *testing.T) {
	circ := algorithms.GHZ(4)
	clean, err := RunNoisy(circ, NoiseModel{}, 1500, 2)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := RunNoisy(circ, NoiseModel{Depolarizing: 0.05}, 1500, 2)
	if err != nil {
		t.Fatal(err)
	}
	legal := func(counts map[int64]int) float64 {
		return float64(counts[0]+counts[15]) / 1500
	}
	if legal(clean.Counts) < 0.999 {
		t.Fatalf("clean GHZ has illegal outcomes: %v", clean.Counts)
	}
	if legal(noisy.Counts) > 0.95 {
		t.Fatalf("5%% depolarizing noise left %v of outcomes legal — too clean", legal(noisy.Counts))
	}
	if noisy.ErrorEvents == 0 {
		t.Fatal("no errors injected")
	}
}

func TestPhaseFlipInvisibleInZBasis(t *testing.T) {
	// Phase flips commute with Z-basis preparation/measurement of a
	// basis state: counts must be unaffected even at rate 1.
	c := qc.New(2, 0)
	c.X(0).X(1)
	res, err := RunNoisy(c, NoiseModel{PhaseFlip: 1}, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[3] != 200 {
		t.Fatalf("phase flips changed Z-basis outcomes: %v", res.Counts)
	}
}

func TestNoiseValidation(t *testing.T) {
	for _, m := range []NoiseModel{
		{BitFlip: 1.5},
		{Depolarizing: math.NaN()},
		{PhaseFlip: math.NaN(), BitFlip: 0.1},
		{BitFlip: math.Inf(1)},
		{Depolarizing: math.Inf(-1)},
		{PhaseFlip: -0.1},
		{Depolarizing: 1.1},
		{BitFlip: 0.6, PhaseFlip: 0.6},
	} {
		if res, err := RunNoisy(algorithms.GHZ(3), m, 10, 1); err == nil {
			t.Fatalf("invalid model %+v accepted: %d error events", m, res.ErrorEvents)
		}
	}
	if _, err := RunNoisy(algorithms.Bell(), NoiseModel{}, 0, 1); err == nil {
		t.Fatal("zero trajectories accepted")
	}
}

func TestNoisyRunWithMidCircuitMeasurement(t *testing.T) {
	// Teleportation under mild noise still mostly works; mainly checks
	// trajectories handle measurement + classical control.
	res, err := RunNoisy(algorithms.Teleport(1.0, 0.3), NoiseModel{Depolarizing: 0.01}, 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trajectories != 50 || len(res.Counts) == 0 {
		t.Fatalf("malformed result: %+v", res)
	}
	if res.MeanNodes <= 0 {
		t.Fatal("missing node statistics")
	}
}
