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
	"math/cmplx"

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
	}
	p.DecRefM(u)
	return u, recs, nil
}

// Check decides the equivalence of two circuits using the given
// strategy. The circuits must have equal register widths — the tool
// imposes the same restriction (Sec. IV-C).
func Check(c1, c2 *qc.Circuit, strategy Strategy) (*Result, error) {
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
	if err := checkPair(c1, c2); err != nil {
		return nil, err
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

// buildPair builds U of G, then U of G′, on p. G′'s build may collect
// garbage, so U of G comes back referenced and the caller releases it;
// U of G′ is unreferenced. With record set, the records of both builds
// come back in one trace, G's first.
func buildPair(ctx context.Context, p *dd.Pkg, c1, c2 *qc.Circuit, record bool) (u1, u2 dd.MEdge, recs []StepRecord, err error) {
	if u1, recs, err = buildFunctionality(ctx, p, c1, record); err != nil {
		return u1, u2, nil, err
	}
	p.IncRefM(u1)
	u2, recs2, err := buildFunctionality(ctx, p, c2, record)
	if err != nil {
		p.DecRefM(u1)
		return u1, u2, nil, err
	}
	for _, r := range recs2 {
		r.Side = "G'"
		recs = append(recs, r)
	}
	return u1, u2, recs, nil
}

func checkConstruction(ctx context.Context, p *dd.Pkg, c1, c2 *qc.Circuit) (*Result, error) {
	// U of G stays referenced, and the reference goes to the caller
	// with Result.Root.
	u1, u2, recs, err := buildPair(ctx, p, c1, c2, true)
	if err != nil {
		return nil, err
	}
	res := &Result{Strategy: Construction, Trace: recs, MultOps: len(recs)}
	for _, r := range recs {
		res.PeakNodes = max(res.PeakNodes, r.Nodes)
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

// sideNames and roundSpans name the miter's sides in trace records
// and verify-round spans.
var (
	sideNames  = [2]string{"G", "G'"}
	roundSpans = [2]string{"verify-round:G", "verify-round:G'"}
)

// checkAlternating runs the strategy's schedule over a miter of the
// pair; under Lookahead, while both sides have gates left, each round
// probes both.
func checkAlternating(ctx context.Context, p *dd.Pkg, c1, c2 *qc.Circuit, strategy Strategy) (*Result, error) {
	m := newMiter(p, c1, c2)
	res := &Result{Strategy: strategy}
	sched := schedule(strategy, c1.NumGates(), c2.NumGates()) // empty under Lookahead
	for {
		ops := [2]*qc.Op{m.Next(Left), m.Next(Right)}
		if ops[Left] == nil && ops[Right] == nil {
			break
		}
		s := Right
		if ops[Right] == nil || ops[Left] != nil && strategy != Lookahead && sched[len(res.Trace)] {
			s = Left
		}
		var n int
		var err error
		var sp *trace.Span
		if strategy == Lookahead && ops[Left] != nil && ops[Right] != nil {
			_, sp = trace.StartSpan(ctx, "verify-round:lookahead")
			s, n, err = lookahead(m)
			res.MultOps++ // the discarded probe
		} else {
			_, sp = trace.StartSpan(ctx, roundSpans[s])
			n, err = m.Step(s)
		}
		if err != nil {
			sp.End()
			p.DecRefM(m.X())
			return nil, fmt.Errorf("verify: %v check: %w", strategy, err)
		}
		sp.SetAttr("nodes_after", int64(n))
		sp.End()
		res.Trace = append(res.Trace, StepRecord{Side: sideNames[s], Gate: ops[s].String(), Nodes: n})
		res.MultOps++
	}
	res.FinalNodes = dd.SizeM(m.X())
	res.Root = m.X()
	res.PeakNodes = m.Peak()
	switch m.Identity() {
	case dd.IdentityExact:
		res.Equivalent = true
	case dd.IdentityUpToPhase:
		res.Equivalent = true
		res.UpToGlobalPhase = true
	}
	return res, nil
}

// lookahead tries the next gate of both sides of m and commits the
// smaller product, G's on a tie. The first probe stays referenced
// while the second may collect.
func lookahead(m *Miter) (Side, int, error) {
	left, err := m.Try(Left)
	if err != nil {
		return Left, 0, err
	}
	right, err := m.Try(Right)
	if err != nil {
		m.Pkg().DecRefM(left)
		return Left, 0, err
	}
	if dd.SizeM(left) <= dd.SizeM(right) {
		m.Pkg().DecRefM(right)
		return Left, m.Take(Left, left), nil
	}
	m.Pkg().DecRefM(left)
	return Right, m.Take(Right, right), nil
}

// SimulationCheck performs random-stimulus falsification: it simulates
// both circuits on random basis states and compares the resulting
// state diagrams canonically: equal root nodes, and root weights whose
// ratio, a global phase, is the same for every stimulus.
// It can prove non-equivalence but only gives evidence of equivalence.
func SimulationCheck(c1, c2 *qc.Circuit, stimuli int, seed int64) (equivalentSoFar bool, counterexample int64, err error) {
	if err := checkPair(c1, c2); err != nil {
		return false, 0, err
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
	var phase complex128 // G|i⟩ = phase·G′|i⟩, fixed by the first stimulus
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
		// One node: the states differ by their root weights alone, and
		// an equivalence up to global phase scales every stimulus alike.
		if r := s1.W / s2.W; k == 0 {
			phase = r
		} else if cmplx.Abs(r-phase) > dd.IdentityTol {
			return false, idx, nil
		}
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
