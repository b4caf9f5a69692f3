// Package verify implements DD-based equivalence checking of quantum
// circuits (Sec. III-C and IV-C of the paper).
//
// Two approaches are provided. The construction approach builds the
// full functionality U of each circuit as a matrix DD and compares the
// canonical root edges. The advanced alternating approach (Burgholzer
// & Wille, TCAD 2021) exploits reversibility: if G ≡ G′ then
// G′⁻¹·G = I, so one starts from the identity DD and alternately
// applies gates of G from one side and inverted gates of G′ from the
// other; with a good application strategy the intermediate diagram
// stays close to the identity throughout (Ex. 12: a 9-node peak
// instead of 21 nodes for the full QFT system matrix).
package verify

import (
	"context"
	"fmt"

	"quantumdd/internal/dd"
	"quantumdd/internal/obs/trace"
	"quantumdd/internal/qc"
)

// Strategy selects the gate application order of the alternating
// scheme.
type Strategy int

const (
	// Construction builds both system matrices and compares roots.
	Construction Strategy = iota
	// Sequential applies all of G, then all of G′⁻¹.
	Sequential
	// OneToOne alternates single gates of G and G′⁻¹.
	OneToOne
	// Proportional alternates gates in the ratio of the circuit
	// sizes (one gate of G per ⌈|G′|/|G|⌉ gates of G′ — the "apply all
	// gates up to the next barrier" walk of Ex. 12).
	Proportional
	// Lookahead greedily applies, at each step, whichever side's next
	// gate results in the smaller intermediate diagram.
	Lookahead
)

// String names the strategy for reports.
func (s Strategy) String() string {
	switch s {
	case Construction:
		return "construction"
	case Sequential:
		return "sequential"
	case OneToOne:
		return "one-to-one"
	case Proportional:
		return "proportional"
	case Lookahead:
		return "lookahead"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// StepRecord traces one application during checking, feeding both the
// tool's verification view (Fig. 9) and the E6 experiment.
type StepRecord struct {
	Side  string // "G", "G'", or "compare"
	Gate  string // rendered op
	Nodes int    // DD size after the application
}

// Result reports the outcome of an equivalence check.
type Result struct {
	Equivalent      bool
	UpToGlobalPhase bool // equivalent with a non-1 global phase factor
	Strategy        Strategy
	PeakNodes       int // maximum DD size observed
	FinalNodes      int
	MultOps         int      // number of gate-application steps
	KernelOps       int      // matrix-kernel applications (Stats.ApplyMOps over the check); a SWAP counts three
	Root            dd.MEdge // canonical root edge of the final diagram, referenced (see CheckOn)
	Trace           []StepRecord
}

// unitaryOps filters the gate operations of a circuit (barriers are
// dropped; measurements etc. are rejected upstream).
func unitaryOps(c *qc.Circuit) []*qc.Op {
	var ops []*qc.Op
	for i := range c.Ops {
		if c.Ops[i].Kind == qc.KindGate {
			ops = append(ops, &c.Ops[i])
		}
	}
	return ops
}

// BuildFunctionality constructs the system matrix U = U_{m-1}···U_0 of
// the circuit as a matrix DD, recording the node count after each
// application. Gates are multiplied in by the matrix kernel. The
// build collects garbage
// on p as the operator grows, so a diagram on p that the caller has
// not referenced (IncRefM) may be swept; the returned root is
// unreferenced.
func BuildFunctionality(p *dd.Pkg, c *qc.Circuit) (dd.MEdge, []StepRecord, error) {
	return buildFunctionality(context.Background(), p, c, true)
}

// Functionality is BuildFunctionality without the per-gate records,
// for callers that need only U: it skips the node count, gate string
// and span each record costs. The root is the same, and it collects
// garbage the same way: unreferenced diagrams on p may be swept.
func Functionality(p *dd.Pkg, c *qc.Circuit) (dd.MEdge, error) {
	u, _, err := buildFunctionality(context.Background(), p, c, false)
	return u, err
}

// buildFunctionality multiplies the gates of c into the identity; with
// record set it traces each application and returns one StepRecord
// per gate. Each product leaves the previous operator and its
// intermediates as garbage, so the build collects on a
// dd.GCWatermark of its own: once the live nodes reach twice what the
// previous collection left (at least dd.GCFloor), the swept nodes
// return to the free list and the tables stay sized to the operator,
// not to its history. Only diagrams referenced on p survive such a
// collection.
func buildFunctionality(ctx context.Context, p *dd.Pkg, c *qc.Circuit, record bool) (dd.MEdge, []StepRecord, error) {
	if c.HasNonUnitary() {
		return dd.MZero(), nil, fmt.Errorf("verify: circuit %q contains non-unitary operations", c.Name)
	}
	u := p.Ident()
	p.IncRefM(u)
	var gc dd.GCWatermark
	var recs []StepRecord
	for _, op := range unitaryOps(c) {
		var sp *trace.Span
		if record {
			_, sp = trace.StartSpan(ctx, "verify:apply")
		}
		next, err := p.ApplyOpML(u, op)
		if err != nil {
			sp.End()
			p.DecRefM(u)
			return dd.MZero(), recs, fmt.Errorf("verify: building functionality of %q: %w", c.Name, err)
		}
		p.IncRefM(next)
		p.DecRefM(u)
		u = next
		gc.MaybeCollect(p)
		if record {
			n := dd.SizeM(u)
			sp.SetAttr("nodes_after", int64(n))
			sp.End()
			recs = append(recs, StepRecord{Side: "G", Gate: op.String(), Nodes: n})
		}
		p.MaybeShapeM(u)
	}
	p.DecRefM(u)
	return u, recs, nil
}

// Check decides the equivalence of two circuits using the given
// strategy. The circuits must have equal register widths — the tool
// imposes the same restriction (Sec. IV-C).
func Check(c1, c2 *qc.Circuit, strategy Strategy) (*Result, error) {
	if c1.NQubits != c2.NQubits {
		return nil, fmt.Errorf("verify: qubit counts differ (%d vs %d); ancillary registers are not supported", c1.NQubits, c2.NQubits)
	}
	return CheckOn(dd.New(c1.NQubits), c1, c2, strategy)
}

// CheckOn is Check running on a caller-supplied DD package, so the
// caller keeps a handle on the engine for statistics after the run
// (ddverify's -metrics-dump). The package must be at least as wide as
// the circuits. Result.Root comes back referenced on p, so later
// builds on p cannot sweep it; the caller releases it with DecRefM.
// A failed check returns no root and holds no reference.
func CheckOn(p *dd.Pkg, c1, c2 *qc.Circuit, strategy Strategy) (*Result, error) {
	return CheckOnCtx(context.Background(), p, c1, c2, strategy)
}

// CheckOnCtx is CheckOn under a trace context: with a flight recorder
// attached (trace.With), every gate application of the chosen
// strategy becomes a verify-round span — carrying side and resulting
// node count — with the engine's matrix multiplications as child
// spans, so a blown-up verify run shows exactly which application
// left the vicinity of the identity. Every strategy applies its gates
// under p's node budget (SetMaxNodes) and fails with
// dd.ErrResourceExhausted when the budget runs out.
func CheckOnCtx(ctx context.Context, p *dd.Pkg, c1, c2 *qc.Circuit, strategy Strategy) (*Result, error) {
	if c1.NQubits != c2.NQubits {
		return nil, fmt.Errorf("verify: qubit counts differ (%d vs %d); ancillary registers are not supported", c1.NQubits, c2.NQubits)
	}
	if c1.HasNonUnitary() || c2.HasNonUnitary() {
		return nil, fmt.Errorf("verify: measurements, resets and classically-controlled operations are not supported in verification")
	}
	ops := p.Stats().ApplyMOps
	var res *Result
	var err error
	if strategy == Construction {
		res, err = checkConstruction(ctx, p, c1, c2)
	} else {
		res, err = checkAlternating(ctx, p, c1, c2, strategy)
	}
	if err != nil {
		return nil, err
	}
	res.KernelOps = int(p.Stats().ApplyMOps - ops)
	return res, nil
}

func checkConstruction(ctx context.Context, p *dd.Pkg, c1, c2 *qc.Circuit) (*Result, error) {
	res := &Result{Strategy: Construction}
	u1, t1, err := buildFunctionality(ctx, p, c1, true)
	if err != nil {
		return nil, err
	}
	// The second build may collect garbage: U of G stays referenced,
	// and the reference goes to the caller with Result.Root.
	p.IncRefM(u1)
	u2, t2, err := buildFunctionality(ctx, p, c2, true)
	if err != nil {
		p.DecRefM(u1)
		return nil, err
	}
	for _, r := range t1 {
		r.Side = "G"
		res.Trace = append(res.Trace, r)
		res.MultOps++
		if r.Nodes > res.PeakNodes {
			res.PeakNodes = r.Nodes
		}
	}
	for _, r := range t2 {
		r.Side = "G'"
		res.Trace = append(res.Trace, r)
		res.MultOps++
		if r.Nodes > res.PeakNodes {
			res.PeakNodes = r.Nodes
		}
	}
	// Canonicity: equality of the diagrams is root-edge equality.
	res.FinalNodes = dd.SizeM(u1)
	res.Root = u1
	if u1 == u2 {
		res.Equivalent = true
	} else if u1.N == u2.N {
		res.Equivalent = true
		res.UpToGlobalPhase = true
	}
	res.Trace = append(res.Trace, StepRecord{Side: "compare", Gate: "root comparison", Nodes: res.FinalNodes})
	return res, nil
}

// schedule emits the side sequence ("G" as true, "G'" as false) for a
// given strategy over m1 gates of G and m2 gates of G′.
func schedule(strategy Strategy, m1, m2 int) []bool {
	var out []bool
	switch strategy {
	case Sequential:
		for i := 0; i < m1; i++ {
			out = append(out, true)
		}
		for i := 0; i < m2; i++ {
			out = append(out, false)
		}
	case OneToOne:
		i, j := 0, 0
		for i < m1 || j < m2 {
			if i < m1 {
				out = append(out, true)
				i++
			}
			if j < m2 {
				out = append(out, false)
				j++
			}
		}
	case Proportional:
		// Apply one gate of the smaller circuit per ratio gates of the
		// larger one, interleaved so both sides finish together.
		if m1 == 0 || m2 == 0 {
			return schedule(Sequential, m1, m2)
		}
		i, j := 0, 0
		for i < m1 || j < m2 {
			if i < m1 {
				out = append(out, true)
				i++
			}
			// Gates of G' owed after i gates of G: round(i*m2/m1).
			owed := (i*m2 + m1/2) / m1
			if i == m1 {
				owed = m2
			}
			for j < owed {
				out = append(out, false)
				j++
			}
		}
	}
	return out
}

func checkAlternating(ctx context.Context, p *dd.Pkg, c1, c2 *qc.Circuit, strategy Strategy) (*Result, error) {
	g1 := unitaryOps(c1)
	g2 := unitaryOps(c2)
	res := &Result{Strategy: strategy}
	x := p.Ident()
	p.IncRefM(x)
	res.PeakNodes = dd.SizeM(x)
	// apply consumes op of G from the left, X ← U·X, or op of G′ from
	// the right, X ← X·U′⁻¹: applying the inverted gates of G′ in
	// original order from the right realizes G·G′⁻¹ once both circuits
	// are consumed. The result comes back referenced.
	apply := func(fromG bool, op *qc.Op) (dd.MEdge, error) {
		var next dd.MEdge
		var err error
		if fromG {
			next, err = p.ApplyOpML(x, op)
		} else {
			inv := op.Inverse()
			next, err = p.ApplyOpMR(x, &inv)
		}
		if err == nil {
			p.IncRefM(next)
		}
		return next, err
	}
	// take makes the referenced next the product and records the step.
	take := func(sp *trace.Span, next dd.MEdge, side string, op *qc.Op) {
		p.DecRefM(x)
		x = next
		n := dd.SizeM(x)
		if n > res.PeakNodes {
			res.PeakNodes = n
		}
		sp.SetAttr("nodes_after", int64(n))
		sp.End()
		res.Trace = append(res.Trace, StepRecord{Side: side, Gate: op.String(), Nodes: n})
		res.MultOps++
		p.MaybeShapeM(x)
	}
	step := func(fromG bool, op *qc.Op) error {
		name, side := "verify-round:G'", "G'"
		if fromG {
			name, side = "verify-round:G", "G"
		}
		_, sp := trace.StartSpan(ctx, name)
		next, err := apply(fromG, op)
		if err != nil {
			sp.End()
			return err
		}
		take(sp, next, side, op)
		return nil
	}
	// lookahead applies both next gates and keeps the smaller result.
	// The first probe stays referenced while the second may collect.
	lookahead := func(opG, opG2 *qc.Op) (fromG bool, err error) {
		_, sp := trace.StartSpan(ctx, "verify-round:lookahead")
		left, err := apply(true, opG)
		if err != nil {
			sp.End()
			return false, err
		}
		right, err := apply(false, opG2)
		if err != nil {
			p.DecRefM(left)
			sp.End()
			return false, err
		}
		res.MultOps++ // the discarded probe
		if fromG = dd.SizeM(left) <= dd.SizeM(right); fromG {
			p.DecRefM(right)
			take(sp, left, "G", opG)
		} else {
			p.DecRefM(left)
			take(sp, right, "G'", opG2)
		}
		return fromG, nil
	}

	sched := schedule(strategy, len(g1), len(g2)) // empty under Lookahead
	var err error
	for i, j := 0, 0; err == nil && i+j < len(g1)+len(g2); {
		fromG := j == len(g2) || i < len(g1) && strategy != Lookahead && sched[i+j]
		switch {
		case strategy == Lookahead && i < len(g1) && j < len(g2):
			fromG, err = lookahead(g1[i], g2[j])
		case fromG:
			err = step(true, g1[i])
		default:
			err = step(false, g2[j])
		}
		if fromG {
			i++
		} else {
			j++
		}
	}
	if err != nil {
		p.DecRefM(x)
		return nil, fmt.Errorf("verify: %v check: %w", strategy, err)
	}

	res.FinalNodes = dd.SizeM(x)
	res.Root = x
	switch p.CheckIdentity(x) {
	case dd.IdentityExact:
		res.Equivalent = true
	case dd.IdentityUpToPhase:
		res.Equivalent = true
		res.UpToGlobalPhase = true
	}
	return res, nil
}

// SimulationCheck performs random-stimulus falsification: it simulates
// both circuits on random basis states and compares the resulting
// state diagrams (canonically, i.e. by root equality up to phase).
// It can prove non-equivalence but only gives evidence of equivalence.
func SimulationCheck(c1, c2 *qc.Circuit, stimuli int, seed int64) (equivalentSoFar bool, counterexample int64, err error) {
	if c1.NQubits != c2.NQubits {
		return false, 0, fmt.Errorf("verify: qubit counts differ (%d vs %d)", c1.NQubits, c2.NQubits)
	}
	if c1.HasNonUnitary() || c2.HasNonUnitary() {
		return false, 0, fmt.Errorf("verify: non-unitary circuits cannot be checked by simulation")
	}
	return simulationCheckOn(dd.New(c1.NQubits), c1, c2, stimuli, seed)
}

// simulationCheckOn is SimulationCheck on p. A stimulus leaves both of
// its states as garbage and no diagram has to survive into the next
// one, so the check collects between stimuli on a dd.GCWatermark. On
// the fresh package SimulationCheck hands it, a collection leaves no
// live node, so the watermark stays at dd.GCFloor and the check
// collects whenever the live nodes reach it.
func simulationCheckOn(p *dd.Pkg, c1, c2 *qc.Circuit, stimuli int, seed int64) (bool, int64, error) {
	var gc dd.GCWatermark
	rng := newSplitMix(seed)
	dim := int64(1) << uint(c1.NQubits)
	for k := 0; k < stimuli; k++ {
		idx := int64(rng.next() % uint64(dim))
		s1, err := runOn(p, c1, idx)
		if err != nil {
			return false, 0, err
		}
		s2, err := runOn(p, c2, idx)
		if err != nil {
			return false, 0, err
		}
		if s1.N != s2.N {
			return false, idx, nil
		}
		// Same node: amplitudes may still differ by a non-phase factor
		// in pathological non-unitary inputs; unitary circuits preserve
		// the norm, so only phase can differ.
		gc.MaybeCollect(p)
	}
	return true, 0, nil
}

func runOn(p *dd.Pkg, c *qc.Circuit, idx int64) (dd.VEdge, error) {
	st := p.BasisState(idx)
	for _, op := range unitaryOps(c) {
		var err error
		if st, err = p.ApplyOp(st, op); err != nil {
			return dd.VZero(), err
		}
	}
	return st, nil
}

// splitMix is a tiny deterministic PRNG so the package does not need
// math/rand state sharing.
type splitMix struct{ s uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{s: uint64(seed)*2654435769 + 1} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
