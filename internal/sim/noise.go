package sim

// Stochastic noise simulation by Monte-Carlo trajectories: after each
// gate, Pauli errors are sampled on the operand qubits and applied as
// extra gates, keeping every trajectory a pure state — exactly the
// technique the DD-simulation literature uses to study noisy devices
// without density matrices (each trajectory stays a cheap vector DD).

import (
	"context"
	"fmt"
	"math/rand"

	"quantumdd/internal/dd"
	"quantumdd/internal/obs"
	"quantumdd/internal/qc"
)

// NoiseModel describes per-operand-qubit error channels applied after
// every gate. Probabilities are per qubit touched by the gate.
type NoiseModel struct {
	// Depolarizing applies X, Y or Z (uniformly) with this probability.
	Depolarizing float64
	// BitFlip applies X with this probability.
	BitFlip float64
	// PhaseFlip applies Z with this probability.
	PhaseFlip float64
}

// IsZero reports whether the model introduces no errors.
func (m NoiseModel) IsZero() bool {
	return m.Depolarizing == 0 && m.BitFlip == 0 && m.PhaseFlip == 0
}

func (m NoiseModel) validate() error {
	for _, p := range []float64{m.Depolarizing, m.BitFlip, m.PhaseFlip} {
		// Written so that NaN, which fails every comparison, is
		// rejected too; ±Inf fall outside the range.
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("sim: noise probability %v out of [0,1]", p)
		}
	}
	if m.Depolarizing+m.BitFlip+m.PhaseFlip > 1 {
		return fmt.Errorf("sim: combined noise probability exceeds 1")
	}
	return nil
}

// NoisyResult aggregates a trajectory ensemble. For a fixed ensemble
// seed it is bit-identical across worker counts and scheduling orders
// (see pool.go), apart from Workers and the Seconds timings.
type NoisyResult struct {
	// Trajectories counts the trajectories that ran to completion;
	// it equals Requested unless budget exhaustion or cancellation
	// trimmed the ensemble (see Failed and IsPartial).
	Trajectories int
	// Requested is the ensemble size the caller asked for.
	Requested int
	// Failed counts trajectories aborted by the node budget or by
	// context cancellation; their samples and error events are not
	// part of the aggregate.
	Failed int
	// Workers is the pool width the ensemble actually used.
	Workers int
	// Counts tallies the sampled basis state of the full register at
	// the end of each completed trajectory.
	Counts map[int64]int
	// ErrorEvents counts the Pauli errors injected across the
	// completed trajectories.
	ErrorEvents int
	// MeanNodes is the average final diagram size per completed
	// trajectory (0 when none completed).
	MeanNodes float64
	// Seconds tallies the wall-clock time of every completed
	// trajectory over obs.LatencyBuckets; each worker keeps its own
	// and the ensemble merges them once. Unlike the fields above, it
	// differs from run to run.
	Seconds obs.Tally
}

// RunNoisy simulates the circuit trajectories times under the noise
// model and aggregates end-of-circuit samples. Measurements inside the
// circuit are sampled per trajectory (no dialogs; WithChooser is
// ignored). Extra options apply to every trajectory simulator (e.g.
// WithMaxNodes).
//
// Trajectories are fanned out over a pool of independent DD engine
// replicas (WithWorkers; default GOMAXPROCS). Each trajectory's
// random stream derives from (seed, trajectoryIndex) via a
// counter-based mixer, so the result is bit-identical for every
// worker count. When individual trajectories exhaust the node budget,
// the completed trajectories' aggregate is returned alongside an
// error matching dd.ErrResourceExhausted instead of discarding the
// ensemble.
func RunNoisy(circ *qc.Circuit, model NoiseModel, trajectories int, seed int64, opts ...Option) (*NoisyResult, error) {
	return RunNoisyCtx(context.Background(), circ, model, trajectories, seed, opts...)
}

// nextError continues the Pauli draws of gate op at its i-th touched
// qubit — the targets first, then the controls — and returns the first
// error gate drawn with its touched index, or GateNone when none of
// the remaining qubits draws one. A zero model draws nothing. The
// prefix-trie walk and the suffix loop (prefix.go) both draw through
// it, so the two cannot drift apart.
func nextError(rng *rand.Rand, m NoiseModel, op *qc.Op, i int) (qc.Gate, int) {
	if m.IsZero() {
		return qc.GateNone, i
	}
	for n := len(op.Targets) + len(op.Controls); i < n; i++ {
		if g := samplePauli(rng, m); g != qc.GateNone {
			return g, i
		}
	}
	return qc.GateNone, i
}

// touchedQubit returns the i-th qubit gate op touches, in nextError's
// order.
func touchedQubit(op *qc.Op, i int) int {
	if i < len(op.Targets) {
		return op.Targets[i]
	}
	return op.Controls[i-len(op.Targets)].Qubit
}

// samplePauli draws an error gate (or GateNone) from the model.
func samplePauli(rng *rand.Rand, m NoiseModel) qc.Gate {
	r := rng.Float64()
	if r < m.Depolarizing {
		return []qc.Gate{qc.X, qc.Y, qc.Z}[rng.Intn(3)]
	}
	r -= m.Depolarizing
	if r < m.BitFlip {
		return qc.X
	}
	r -= m.BitFlip
	if r < m.PhaseFlip {
		return qc.Z
	}
	return qc.GateNone
}

// injectGate applies a gate to the current state without recording it
// in the step history (errors are not user operations; stepping
// backward replays the trajectory without them). It goes through the
// checked paths so an injected error respects the same SetMaxNodes
// budget as the circuit's own gates.
func (s *Simulator) injectGate(g qc.Gate, q int) error {
	next, err := s.pkg.ApplyGateChecked(s.state, dd.GateMatrix(qc.Matrix2(g, nil)), q)
	if err != nil {
		return err
	}
	s.setState(next)
	return nil
}
