// Package sim implements DD-based simulation of quantum circuits with
// the interaction model of the paper's tool (Sec. IV-B): stepping
// forward and backward through the circuit, running to the end, and
// handling measurements, resets and classically-controlled operations
// — including the "dialog" where a caller chooses the outcome of a
// measurement in superposition.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"quantumdd/internal/dd"
	"quantumdd/internal/obs/trace"
	"quantumdd/internal/qc"
)

// EventKind describes what a simulation step did.
type EventKind int

const (
	EventGate      EventKind = iota // a unitary gate was applied
	EventBarrier                    // a barrier was passed (breakpoint)
	EventMeasure                    // a measurement collapsed the state
	EventReset                      // a reset re-initialized a qubit
	EventCondSkip                   // a classically-controlled gate did not fire
	EventCondApply                  // a classically-controlled gate fired
	EventEnd                        // no operation left
)

// Event reports the effect of one executed operation.
type Event struct {
	Kind    EventKind
	OpIndex int     // index of the executed op
	Op      *qc.Op  // the executed op (nil for EventEnd)
	Outcome int     // measurement/reset outcome (pre-reset value)
	P0, P1  float64 // branch probabilities shown in the dialog
}

// OutcomeChooser decides measurement (and pre-reset) outcomes when a
// qubit is in superposition — the role of the tool's pop-up dialog.
// Implementations return 0 or 1.
type OutcomeChooser func(op *qc.Op, qubit int, p0, p1 float64) int

// Simulator steps a circuit on a decision-diagram state.
type Simulator struct {
	pkg   *dd.Pkg
	circ  *qc.Circuit
	state dd.VEdge
	pos   int // index of the next op to execute

	classical []int // classical bit values (-1 = never written)

	// history holds a snapshot per executed op so that stepping
	// backward restores non-unitary effects exactly.
	history []snapshot

	rng     *rand.Rand
	chooser OutcomeChooser

	// gc schedules garbage collection on the package's one doubling
	// rule (dd.GCWatermark): setState collects through it, and a
	// replica collects through it between trajectories. History
	// snapshots and the state are referenced, so they survive.
	gc dd.GCWatermark

	// approxThreshold, when positive, prunes branches below this
	// probability after every gate (see dd.Approximate); fidelity
	// keeps the cumulative product of per-step fidelities.
	approxThreshold float64
	approxFidelity  float64

	// workers configures the trajectory pool (pool.go); it has no
	// effect on a single interactive simulator but rides on Option so
	// RunNoisy keeps one variadic options surface for both
	// per-trajectory and ensemble settings.
	workers int

	// replica marks a trajectory simulator on a pool worker (pool.go).
	// Nothing reads its sizes or steps it backward, so setState skips
	// the size walk and stepForward keeps no history. It collects only
	// between trajectories (replica.maintain), so setState does not
	// collect on a replica either.
	replica   bool
	size      int // nodes of state; not maintained on a replica
	peakNodes int // largest state diagram observed
}

type snapshot struct {
	state     dd.VEdge
	size      int
	classical []int
}

// Option configures a Simulator.
type Option func(*Simulator)

// WithSeed makes sampled outcomes deterministic.
func WithSeed(seed int64) Option {
	return func(s *Simulator) { s.rng = rand.New(rand.NewSource(seed)) }
}

// WithChooser installs an interactive outcome chooser; without one,
// outcomes are sampled from the Born probabilities.
func WithChooser(c OutcomeChooser) Option {
	return func(s *Simulator) { s.chooser = c }
}

// WithApproximation enables approximate simulation: after every gate,
// branches whose probability falls below threshold are pruned and the
// state renormalized (dd.Approximate). The running fidelity estimate
// is available via ApproxFidelity. Threshold must be in [0, 1).
func WithApproximation(threshold float64) Option {
	return func(s *Simulator) { s.approxThreshold = threshold }
}

// WithMaxNodes caps the decision-diagram unique tables at n live
// nodes (see dd.Pkg.SetMaxNodes). When a gate application would
// exceed the cap, StepForward returns an error matching
// dd.ErrResourceExhausted and leaves the state at the last good
// position instead of exhausting process memory.
func WithMaxNodes(n int) Option {
	return func(s *Simulator) { s.pkg.SetMaxNodes(n) }
}

// WithShapeInterval enables structural shape profiling of the state
// diagram: every n executed steps the simulator publishes a
// dd.ShapeProfile (per-level occupancy, sharing factor, edge-weight
// histogram) readable via Pkg().LastShape(). n ≤ 0 (the default)
// disables sampling; the disabled per-step check is a single branch
// and allocation-free. The profile walk is O(nodes), so the
// amortized overhead at stride n is bounded by ~1/n of the step cost.
// ddbench S1 and the benchmark replay use it.
func WithShapeInterval(n int) Option {
	return func(s *Simulator) { s.pkg.SetShapeInterval(n) }
}

// WithWorkers sets the trajectory pool width for RunNoisy: the
// ensemble is fanned out over n independent DD engine replicas.
// 0 (the default) uses runtime.GOMAXPROCS(0); 1 runs sequentially on
// the calling goroutine. Results are bit-identical for every worker
// count (see pool.go). The option is ignored outside RunNoisy.
func WithWorkers(n int) Option {
	return func(s *Simulator) { s.workers = n }
}

// New creates a simulator for the circuit, starting in |0…0⟩.
// Without WithSeed, outcomes are sampled from a source seeded with 1.
func New(circ *qc.Circuit, opts ...Option) *Simulator {
	s := newOn(dd.New(circ.NQubits), circ, nil, opts...)
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(1))
	}
	return s
}

// newOn builds a simulator on an existing DD package — the replica
// pool (pool.go) reuses one engine per worker across trajectories so
// unique tables, interned gates, and slab arenas stay warm. A non-nil
// rng replaces any stream the options installed; with a nil rng the
// simulator keeps whatever the options set, possibly none.
func newOn(p *dd.Pkg, circ *qc.Circuit, rng *rand.Rand, opts ...Option) *Simulator {
	s := &Simulator{
		pkg:            p,
		circ:           circ,
		state:          p.ZeroState(),
		classical:      make([]int, circ.NClbits),
		approxFidelity: 1,
	}
	for i := range s.classical {
		s.classical[i] = -1
	}
	for _, o := range opts {
		o(s)
	}
	if rng != nil {
		s.rng = rng
	}
	s.pkg.IncRefV(s.state)
	s.size = dd.SizeV(s.state)
	return s
}

// Pkg exposes the underlying DD package (for visualization and stats).
func (s *Simulator) Pkg() *dd.Pkg { return s.pkg }

// Circuit returns the simulated circuit.
func (s *Simulator) Circuit() *qc.Circuit { return s.circ }

// State returns the current decision-diagram state.
func (s *Simulator) State() dd.VEdge { return s.state }

// Pos returns the index of the next operation to execute.
func (s *Simulator) Pos() int { return s.pos }

// AtEnd reports whether the whole circuit has been executed.
func (s *Simulator) AtEnd() bool { return s.pos >= len(s.circ.Ops) }

// AtStart reports whether no operation has been executed.
func (s *Simulator) AtStart() bool { return s.pos == 0 }

// Classical returns a copy of the classical bit values (-1 for bits
// never written by a measurement).
func (s *Simulator) Classical() []int {
	out := make([]int, len(s.classical))
	copy(out, s.classical)
	return out
}

func (s *Simulator) setState(e dd.VEdge) {
	s.pkg.IncRefV(e)
	s.pkg.DecRefV(s.state)
	s.state = e
	if !s.replica {
		s.size = dd.SizeV(e)
		if s.size > s.peakNodes {
			s.peakNodes = s.size
		}
		s.gc.MaybeCollect(s.pkg)
	}
	s.pkg.MaybeShapeV(s.state)
}

// Nodes reports the node count of the current state, kept from the
// walk that measured it, so reading it walks nothing.
func (s *Simulator) Nodes() int { return s.size }

// PeakNodes reports the largest state diagram seen so far — the
// "strengths and limits" indicator surfaced by the tool's statistics.
func (s *Simulator) PeakNodes() int {
	if s.size > s.peakNodes {
		s.peakNodes = s.size
	}
	return s.peakNodes
}

// release drops every diagram reference this simulator holds — the
// current state and all history snapshots — returning the shared DD
// package to the pool in a collectible state. The simulator must not
// be stepped afterwards until moveTo positions it again. Only the
// trajectory pool calls this: an interactive simulator owns its
// package and lets it die with the session instead.
func (s *Simulator) release() {
	for i := range s.history {
		s.pkg.DecRefV(s.history[i].state)
	}
	s.history = nil
	s.pkg.DecRefV(s.state)
	s.state, s.size = dd.VZero(), 0
}

// StepForward executes the next operation and reports what happened.
// Reaching the end yields an EventEnd without error.
func (s *Simulator) StepForward() (Event, error) {
	return s.StepForwardCtx(context.Background())
}

// stepSpanName maps an op onto the stable session-op span name — no
// formatting, so naming costs nothing beyond the enabled check.
func stepSpanName(op *qc.Op) string {
	switch op.Kind {
	case qc.KindBarrier:
		return "step:barrier"
	case qc.KindMeasure:
		return "step:measure"
	case qc.KindReset:
		return "step:reset"
	default:
		if op.Cond != nil {
			return "step:cond-gate"
		}
		return "step:gate"
	}
}

// StepForwardCtx is StepForward under a trace context: when a flight
// recorder rides on ctx (trace.With), the step is recorded as a
// session-op span carrying the DD attributes triage needs — node
// counts before/after, compute-table and apply-table hit deltas, and
// whether the node budget aborted the step — with the gate application
// and the engine's top-level DD operations as child spans. Without a recorder it is exactly StepForward: the
// tracing path adds no allocations.
func (s *Simulator) StepForwardCtx(ctx context.Context) (Event, error) {
	if !trace.Enabled(ctx) {
		return s.stepForward(ctx)
	}
	name := "step:end"
	if !s.AtEnd() {
		name = stepSpanName(&s.circ.Ops[s.pos])
	}
	ctx, sp := trace.StartSpan(ctx, name)
	sp.SetAttr("op_index", int64(s.pos))
	sp.SetAttr("nodes_before", int64(s.size))
	cache0, apply0 := s.pkg.HitCounts()
	ev, err := s.stepForward(ctx)
	cache1, apply1 := s.pkg.HitCounts()
	sp.SetAttr("nodes_after", int64(s.size))
	sp.SetAttr("ct_hits", int64(cache1-cache0))
	sp.SetAttr("apply_ct_hits", int64(apply1-apply0))
	if err != nil && errors.Is(err, dd.ErrResourceExhausted) {
		sp.SetAttr("budget_exhausted", 1)
	}
	sp.End()
	return ev, err
}

// stepForward is the untimed step body; ctx carries the trace span
// the gate application parents under.
func (s *Simulator) stepForward(ctx context.Context) (Event, error) {
	if s.AtEnd() {
		return Event{Kind: EventEnd, OpIndex: s.pos}, nil
	}
	op := &s.circ.Ops[s.pos]
	// Snapshot for backward stepping. A replica never steps back, so
	// it skips the classical copy and drops the snapshot at the end.
	snap := snapshot{state: s.state, size: s.size}
	if !s.replica {
		snap.classical = append([]int(nil), s.classical...)
	}
	s.pkg.IncRefV(snap.state)
	ev := Event{OpIndex: s.pos, Op: op}
	switch op.Kind {
	case qc.KindBarrier:
		ev.Kind = EventBarrier
	case qc.KindMeasure, qc.KindReset:
		q := op.Targets[0]
		outcome, p0, p1, err := s.measure(op, q)
		var next dd.VEdge
		if err == nil {
			if op.Kind == qc.KindMeasure {
				next, err = s.pkg.Collapse(s.state, q, outcome)
			} else {
				next, err = s.pkg.ResetTo(s.state, q, outcome)
			}
		}
		if err != nil {
			s.pkg.DecRefV(snap.state)
			return Event{}, err
		}
		s.setState(next)
		if op.Kind == qc.KindMeasure {
			s.classical[op.Cbit] = outcome
			ev.Kind = EventMeasure
		} else {
			ev.Kind = EventReset
		}
		ev.Outcome = outcome
		ev.P0, ev.P1 = p0, p1
	case qc.KindGate:
		if op.Cond != nil && !s.condHolds(op.Cond) {
			ev.Kind = EventCondSkip
			break
		}
		var asp *trace.Span
		if trace.Enabled(ctx) {
			// Name the application span after the concrete gate — the
			// string build only happens with a recorder attached.
			_, asp = trace.StartSpan(ctx, "apply "+op.String())
		}
		next, err := s.pkg.ApplyOp(s.state, op)
		asp.End()
		if err != nil {
			s.pkg.DecRefV(snap.state)
			return Event{}, err
		}
		if s.approxThreshold > 0 {
			approx, fid, _, _ := s.pkg.Approximate(next, s.approxThreshold)
			s.approxFidelity *= fid
			next = approx
		}
		s.setState(next)
		if op.Cond != nil {
			ev.Kind = EventCondApply
		} else {
			ev.Kind = EventGate
		}
	default:
		s.pkg.DecRefV(snap.state)
		return Event{}, fmt.Errorf("sim: unknown op kind %d", op.Kind)
	}
	if s.replica {
		s.pkg.DecRefV(snap.state)
	} else {
		s.history = append(s.history, snap)
	}
	s.pos++
	return ev, nil
}

// outcomeEps is the branch probability at or below which a
// measurement outcome is never taken.
const outcomeEps = 1e-12

// measure picks the outcome of measuring or resetting qubit q:
// deterministic when one branch has probability ~0, otherwise via the
// chooser (dialog) or by sampling. The caller projects the state.
func (s *Simulator) measure(op *qc.Op, q int) (outcome int, p0, p1 float64, err error) {
	p1 = s.pkg.ProbOne(s.state, q)
	p0 = 1 - p1
	if s.chooser != nil && p0 > outcomeEps && p1 > outcomeEps {
		outcome = s.chooser(op, q, p0, p1)
		if outcome != 0 && outcome != 1 {
			return 0, p0, p1, fmt.Errorf("sim: chooser returned invalid outcome %d", outcome)
		}
	} else {
		outcome = drawOutcome(s.rng, p1)
	}
	return outcome, p0, p1, nil
}

// drawOutcome samples a measurement outcome whose probability of
// reading 1 is p1. A branch at or below outcomeEps is never taken and
// the certain outcome costs no draw; otherwise one Float64 decides.
// Simulator.measure and the prefix-trie walk (prefix.go) both draw
// through it, so they consume a trajectory's stream identically.
func drawOutcome(rng *rand.Rand, p1 float64) int {
	switch {
	case p1 <= outcomeEps:
		return 0
	case 1-p1 <= outcomeEps:
		return 1
	case rng.Float64() < p1:
		return 1
	}
	return 0
}

func (s *Simulator) condHolds(c *qc.Condition) bool {
	var v uint64
	for i, b := range c.Bits {
		bit := s.classical[b]
		if bit == 1 {
			v |= 1 << uint(i)
		}
	}
	return v == c.Value
}

// StepBackward undoes the most recently executed operation (including
// non-unitary ones, by restoring the snapshot) and reports whether a
// step was undone. A simulator resumed from a snapshot has no history
// before the restore point, so stepping backward across it reports
// false rather than failing.
func (s *Simulator) StepBackward() bool {
	if s.pos == 0 || len(s.history) == 0 {
		return false
	}
	snap := s.history[len(s.history)-1]
	s.history = s.history[:len(s.history)-1]
	s.pkg.DecRefV(s.state)
	s.state, s.size = snap.state, snap.size // snapshot already holds a reference
	s.classical = snap.classical
	s.pos--
	return true
}

// RunToEnd executes all remaining operations — ⏭ without breakpoints.
func (s *Simulator) RunToEnd() ([]Event, error) {
	var events []Event
	for !s.AtEnd() {
		ev, err := s.StepForward()
		if err != nil {
			return events, err
		}
		events = append(events, ev)
	}
	return events, nil
}

// Rewind returns to the initial state |0…0⟩ — the ⏮ button.
func (s *Simulator) Rewind() {
	for s.StepBackward() {
	}
}

// ProbOne returns the probability of measuring qubit q as |1⟩ in the
// current state.
func (s *Simulator) ProbOne(q int) float64 { return s.pkg.ProbOne(s.state, q) }

// ApproxFidelity reports the cumulative fidelity estimate of an
// approximate simulation (1 when approximation is off or never fired).
// Note: stepping backward does not restore previously spent fidelity.
func (s *Simulator) ApproxFidelity() float64 { return s.approxFidelity }

// Sample draws shots basis states from the current state without
// disturbing it (weak simulation).
func (s *Simulator) Sample(shots int) map[int64]int {
	return dd.SampleCounts(s.state, shots, s.rng)
}

// Amplitudes returns the dense current state (exponential; for tests
// and small-instance visualization).
func (s *Simulator) Amplitudes() []complex128 { return s.pkg.Vector(s.state) }

// Run simulates the whole circuit with the given seed and returns the
// classical results and final state — the batch entry point.
func Run(circ *qc.Circuit, seed int64) (classical []int, final dd.VEdge, p *dd.Pkg, err error) {
	s := New(circ, WithSeed(seed))
	if _, err := s.RunToEnd(); err != nil {
		return nil, dd.VZero(), nil, err
	}
	return s.Classical(), s.State(), s.Pkg(), nil
}
