package sim

// Prefix-shared trajectories: most trajectories of a noisy ensemble
// see no error for a long stretch of the circuit, and until their
// first error they all compute the same states. Each pool worker
// therefore simulates the circuit's error-free states once per
// ensemble, into a trie, and every trajectory walks that trie while
// drawing exactly the random numbers the whole-trajectory loop would
// draw. DD work starts only at the trajectory's first sampled Pauli
// error, from the trie state after that gate; a trajectory that stays
// error-free costs one dd.Sample on the cached final state. This is
// the stochastic trajectory method of arXiv 2108.07027 with the
// noiseless special case of mqt-core's sample (simulate once, then
// sample) generalised to the error-free prefix.
//
// The trie:
//
//   - Gate and barrier ops have one child, the state after the op
//     with no error. Measure and reset ops have one child per outcome
//     of probability above outcomeEps, built with the outcome forced
//     through the chooser. Building is eager and depth-first, outcome
//     0 first, so every worker builds the same trie.
//   - Its states stay ref-protected until the worker finishes. They
//     count against the node budget, so the trie stops growing once
//     the pinned nodes exceed min(budget/2, triePinnedCap), or at
//     4·len(ops) states. A step that fails during the build leaves
//     its node a leaf, and trajectories reaching a leaf simulate the
//     rest of the circuit from it.
//
// The walk and the suffix loop draw measurement outcomes through
// drawOutcome and Pauli errors through nextError, so a trajectory's
// stream is consumed in the same order whether it is walking the trie
// or simulating.

import (
	"context"
	"math/rand"

	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
)

// prefixNode is one error-free state of the trie.
type prefixNode struct {
	state     dd.VEdge // ref-protected state before op pos
	pos       int
	classical []int // classical bits before op pos; read-only, shared with the parent when unchanged

	next *prefixNode // gate and barrier ops: the state after the op

	kids [2]*prefixNode // measure and reset ops: the state after each possible outcome
	p1   float64        // measure and reset ops: probability of outcome 1

	size int // end of circuit: dd.SizeV(state)
}

// leaf reports whether the node has no children: trajectories that
// reach it simulate op pos and everything after it themselves.
func (n *prefixNode) leaf() bool {
	return n.next == nil && n.kids[0] == nil && n.kids[1] == nil
}

// replica is one pool worker's engine: its DD package, the error-free
// trie built on it, and one simulator reused by every trajectory that
// leaves the trie.
type replica struct {
	pkg   *dd.Pkg
	circ  *qc.Circuit
	model NoiseModel
	src   pcgSource
	rng   *rand.Rand
	sim   *Simulator
	root  *prefixNode
}

// newReplica builds the worker's trie on pkg and collects once, so
// the replica's first trajectory starts from the pinned trie alone.
func newReplica(pkg *dd.Pkg, circ *qc.Circuit, model NoiseModel, opts []Option) *replica {
	r := &replica{pkg: pkg, circ: circ, model: model}
	r.rng = rand.New(&r.src)
	s := newOn(pkg, circ, r.rng, opts...)
	s.replica = true
	r.sim = s
	r.build()
	s.chooser = nil
	s.release()
	s.gc.Collect(pkg)
	return r
}

// build fills the trie depth-first, outcome 0 first.
func (r *replica) build() {
	ops := r.circ.Ops
	limit := triePinnedCap
	if m := r.pkg.MaxNodes(); m > 0 {
		limit = min(limit, m/2)
	}
	maxStates := 4 * len(ops)

	var forced int
	r.sim.chooser = func(*qc.Op, int, float64, float64) int { return forced }
	r.root = &prefixNode{state: r.sim.state, classical: append([]int(nil), r.sim.classical...)}
	r.pkg.IncRefV(r.root.state)
	states := 1
	full := false // once set, every node still on the stack stays a leaf
	stack := []*prefixNode{r.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.pos == len(ops) {
			n.size = dd.SizeV(n.state)
			continue
		}
		if full = full || states >= maxStates || r.pinnedOver(limit); full {
			continue
		}
		op := &ops[n.pos]
		if op.Kind != qc.KindMeasure && op.Kind != qc.KindReset {
			if n.next = r.step(n); n.next != nil {
				states++
				stack = append(stack, n.next)
			}
			continue
		}
		n.p1 = r.pkg.ProbOne(n.state, op.Targets[0])
		for o, p := range [2]float64{1 - n.p1, n.p1} {
			if p <= outcomeEps {
				continue
			}
			forced = o
			if n.kids[o] = r.step(n); n.kids[o] == nil {
				// Both outcomes or neither: the walk has drawn the
				// outcome by the time it finds a child missing.
				if n.kids[0] != nil {
					r.pkg.DecRefV(n.kids[0].state)
				}
				n.kids = [2]*prefixNode{}
				break
			}
		}
		for o := 1; o >= 0; o-- {
			if k := n.kids[o]; k != nil {
				states++
				stack = append(stack, k)
			}
		}
	}
}

// pinnedOver reports whether the pinned states hold more than limit
// live nodes. The live count includes garbage, so it collects before
// deciding — only once the count passes the limit, since the build
// stops growing the trie as soon as this reports true.
func (r *replica) pinnedOver(limit int) bool {
	if r.pkg.LiveNodes() <= limit {
		return false
	}
	r.pkg.GarbageCollect()
	return r.pkg.LiveNodes() > limit
}

// step executes op n.pos from n's state and returns the pinned child,
// or nil when the step fails (the node budget, most likely).
func (r *replica) step(n *prefixNode) *prefixNode {
	s := r.sim
	s.moveTo(n.state, n.pos, n.classical)
	if _, err := s.stepForward(context.Background()); err != nil {
		return nil
	}
	child := &prefixNode{state: s.state, pos: s.pos, classical: n.classical}
	if r.circ.Ops[n.pos].Kind == qc.KindMeasure {
		child.classical = append([]int(nil), s.classical...)
	}
	r.pkg.IncRefV(child.state)
	return child
}

// moveTo positions a simulator at a trie state: it takes a reference
// on state, drops the one on the current state, and copies the
// classical bits.
func (s *Simulator) moveTo(state dd.VEdge, pos int, classical []int) {
	s.pkg.IncRefV(state)
	s.pkg.DecRefV(s.state)
	s.state = state
	s.pos = pos
	copy(s.classical, classical)
}

// run executes trajectory tr, whose stream the caller has seeded: it
// walks the trie until the first error or a leaf and simulates only
// from there.
func (r *replica) run(ctx context.Context, tr int) trajectoryOutcome {
	ops := r.circ.Ops
	n := r.root
	for n.pos < len(ops) && !n.leaf() {
		op := &ops[n.pos]
		switch op.Kind {
		case qc.KindMeasure, qc.KindReset:
			n = n.kids[drawOutcome(r.rng, n.p1)]
		case qc.KindGate:
			if g, i := nextError(r.rng, r.model, op, 0); g != qc.GateNone {
				return r.finish(ctx, tr, n.next, op, g, i)
			}
			n = n.next
		default:
			n = n.next
		}
	}
	if n.pos < len(ops) {
		return r.finish(ctx, tr, n, nil, qc.GateNone, 0)
	}
	return trajectoryOutcome{index: tr, sample: dd.Sample(n.state, r.rng), nodes: n.size}
}

// finish simulates the rest of a trajectory from trie node n. When op
// is non-nil, n is the state after op and the walk drew error g on
// op's i-th touched qubit; otherwise n is a leaf and nothing of op
// n.pos has been drawn yet.
func (r *replica) finish(ctx context.Context, tr int, n *prefixNode, op *qc.Op, g qc.Gate, i int) (out trajectoryOutcome) {
	out.index = tr
	s := r.sim
	s.moveTo(n.state, n.pos, n.classical)
	defer s.release()
	for {
		for ; g != qc.GateNone; g, i = nextError(r.rng, r.model, op, i+1) {
			out.events++
			if err := s.injectGate(g, touchedQubit(op, i)); err != nil {
				out.err = err
				return out
			}
		}
		if s.AtEnd() {
			break
		}
		if err := ctx.Err(); err != nil {
			out.err = err
			return out
		}
		op = &r.circ.Ops[s.pos]
		if _, err := s.stepForward(context.Background()); err != nil {
			out.err = err
			return out
		}
		if op.Kind == qc.KindGate {
			g, i = nextError(r.rng, r.model, op, 0)
		}
	}
	out.sample = dd.Sample(s.state, r.rng)
	out.nodes = dd.SizeV(s.state)
	return out
}

// maintain keeps the replica healthy between trajectories: it
// collects on its simulator's dd.GCWatermark, once the live nodes have
// doubled since the last collection, with or without a node budget.
// Between collections the garbage of earlier trajectories stays, and
// with it the compute tables' entries, which later trajectories from
// the same trie states hit. Garbage does not change a budget verdict:
// it only raises the live count, and an op that aborts with garbage
// present is collected and run once more by the budget retry, on the
// pinned trie and the trajectory's own state, so every op fits or
// fails as it would on a collected package.
func (r *replica) maintain() {
	r.sim.gc.MaybeCollect(r.pkg)
}

// close releases the trie's pinned states.
func (r *replica) close() {
	r.root.walk(func(n *prefixNode) { r.pkg.DecRefV(n.state) })
	r.root = nil
}

// walk calls fn on every node of the trie rooted at n.
func (n *prefixNode) walk(fn func(*prefixNode)) {
	stack := []*prefixNode{n}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		fn(n)
		for _, c := range [3]*prefixNode{n.next, n.kids[0], n.kids[1]} {
			if c != nil {
				stack = append(stack, c)
			}
		}
	}
}
