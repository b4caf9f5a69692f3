package dd

// Direct gate application on matrix diagrams: the verify hot path
// multiplies a 2×2 gate (with optional positive/negative controls)
// into a matrix DD from the left (G·M) or the right (M·G) by recursive
// descent, without ever materializing the gate as a matrix diagram —
// the matrix-side sibling of the vector kernel in applygate.go.
//
// The alternating equivalence-checking scheme (Burgholzer & Wille,
// TCAD 2021) lives on exactly these two products: gates of G enter
// X ← U·X from the left, inverted gates of G′ enter X ← X·U′† from the
// right, and X stays in the vicinity of the identity throughout. A
// full-register gate matrix is ~99% identity structure ("Stripping
// Quantum Decision Diagrams of their Identity", Sander et al., 2024),
// and near the fixed point the operand X is mostly identity too — the
// generic MultMM recursion walks all of it, while the descent below
// touches only what the gate changes.
//
// Both products run through one descent. Index a node's quadrants
// (i,j) by row i and column j, stored at 2i+j. The left product is
// (G·M)ᵢⱼ = Σₖ uᵢₖ·Mₖⱼ; the right product (M·G)ᵢⱼ = Σₖ Mᵢₖ·uₖⱼ is the
// same sum with every index pair read transposed. So the descent
// addresses quadrant (i,j) at storage index t(i,j), where
// t = quad[side] is the identity map for the left product and the
// transposition {0,2,1,3} for the right one, and computes
// out[t(i,j)] = Σₖ u[t(i,k)]·M[t(k,j)]. The same map serves the
// result, the operand and the gate entries; no operand is transposed.
// Under the map the gate's row index i is M's row on the left and
// M's column on the right, which is all the orientations differ in:
//
//   - Levels above every involved qubit recurse all four quadrants
//     (shared subdiagrams collapse into apply-cache hits).
//   - A control level above the target splits once: the quadrants
//     with t-row index i inactive (rows on the left, columns on the
//     right) pass through untouched, only the active pair recurses.
//   - At the target level the quadrants are combined with the four
//     gate entries by the sum above.
//   - Controls below the target are resolved by a projector merge:
//     the gated combination y is computed as if the controls were
//     satisfied everywhere, then one pairwise descent per quadrant
//     forms P_inact·x + P_act·y (x·P_inact + y·P_act on the right) —
//     the original quadrant x where a remaining control fails, the
//     gated y where they all hold. The zero-operand corners fall back
//     to memoized single-sided projections.
//
// Every routine visits quadrants in storage order, on both sides: the
// order nodes and complex values are created in decides which
// canonical value a later near-equal weight resolves to, so it is part
// of the output, and TestApplyGateMSidesDigest pins it. Each side
// keeps its own apply, split and merge tables (the keys do not carry
// the side).
//
// Identity sub-blocks are additionally skipped wholesale: the package
// caches the canonical per-level identity node chain (the same nodes
// CheckIdentity compares against), and when the descent reaches one,
// G·I = I·G = G — the result is the gate lowered over the remaining
// levels, served from a per-descriptor cache. Structural sharing makes
// the detection a pointer comparison; no per-node flag is needed.

import (
	"fmt"
	"time"

	"quantumdd/internal/cnum"
)

// side selects the orientation of a matrix apply: G·M or M·G.
type side uint8

const (
	left side = iota
	right
)

// quad[s] maps quadrant (i,j), read through side s, to its storage
// index: quad[s][2i+j]. Both maps are involutions, so the (i,j) of
// storage index q is quad[s][q] split into its two bits.
var quad = [2][4]int{{0, 1, 2, 3}, {0, 2, 1, 3}}

// applyMKey keys the matrix-apply compute tables: the matrix node plus
// the interned gate pointer. Each side has its own apply and split
// tables, so one key shape serves all four.
type (
	applyMKey struct {
		m *MNode
		g *appliedGate
	}
	mPair struct {
		act, inact MEdge
	}
	// mergeMKey keys the projector-merge recursion P_inact·x + P_act·y
	// (mergeM): both nodes, the gate, and the residual
	// weight ratio y.W/x.W after factoring x's weight out.
	mergeMKey struct {
		x, y *MNode
		g    *appliedGate
		r    complex128
	}
)

func hashApplyM(k applyMKey) uint64 { return hashMix(k.m.hash, k.g.hash) }

func hashMergeM(k mergeMKey) uint64 {
	return hashMix(hashMix(k.x.hash, k.y.hash), hashMix(k.g.hash, cnum.HashComplex(k.r)))
}

// identNode returns the canonical node of the identity over levels
// 0..v. The chain is rebuilt at most once per package generation (a
// garbage collection may sweep and recycle the nodes); after that the
// identity check in the descent is a single pointer comparison.
func (p *Pkg) identNode(v Var) *MNode {
	if p.identGen != p.gen || p.identNodes == nil {
		if p.identNodes == nil {
			p.identNodes = make([]*MNode, p.nqubits)
		}
		e := MOne()
		for z := 0; z < p.nqubits; z++ {
			e = p.makeMNode(z, [4]MEdge{e, MZero(), MZero(), e})
			p.identNodes[z] = e.N
		}
		p.identGen = p.gen
	}
	return p.identNodes[v]
}

// gateSubDD returns the gate lowered as a matrix DD over levels 0..v
// only — including exactly the controls at or below v, because the
// descent that short-circuits into this diagram has already consumed
// the controls above. Cached per descriptor and level until the next
// generation bump.
func (p *Pkg) gateSubDD(g *appliedGate, v Var) MEdge {
	if g.subGen != p.gen || g.sub == nil {
		g.sub = make([]MEdge, p.nqubits)
		g.subGen = p.gen
	}
	if g.sub[v].N != nil {
		return g.sub[v]
	}
	e := p.buildGateDDUpTo(g, v)
	g.sub[v] = e
	return e
}

// ApplyGateML computes the left product G·M of the (multi-)controlled
// single-qubit gate u and the matrix diagram m by direct recursive
// descent — the specialized fast path equivalent to
// MultMM(MakeGateDD(u, target, controls...), m), without building the
// gate diagram.
func (p *Pkg) ApplyGateML(m MEdge, u GateMatrix, target int, controls ...Control) MEdge {
	return p.applyGateMTraced(m, p.internGate(u, target, controls), left)
}

// ApplyGateMR computes the right product M·G, the orientation the
// alternating verify scheme uses to consume inverted gates of the
// second circuit.
func (p *Pkg) ApplyGateMR(m MEdge, u GateMatrix, target int, controls ...Control) MEdge {
	return p.applyGateMTraced(m, p.internGate(u, target, controls), right)
}

// ApplyGateMLChecked is ApplyGateML under the node budget (see
// budget.go): it returns a *ResourceError instead of growing the
// unique tables past MaxNodes, leaving the operand diagram intact.
func (p *Pkg) ApplyGateMLChecked(m MEdge, u GateMatrix, target int, controls ...Control) (MEdge, error) {
	return p.applyGateMChecked(m, p.internGate(u, target, controls), left)
}

// ApplyGateMRChecked is ApplyGateMR under the node budget.
func (p *Pkg) ApplyGateMRChecked(m MEdge, u GateMatrix, target int, controls ...Control) (MEdge, error) {
	return p.applyGateMChecked(m, p.internGate(u, target, controls), right)
}

func (p *Pkg) applyGateMChecked(m MEdge, g *appliedGate, s side) (MEdge, error) {
	p.IncRefM(m)
	defer p.DecRefM(m)
	var res MEdge
	if err := p.checked(func() { res = p.applyGateMTraced(m, g, s) }); err != nil {
		return MZero(), err
	}
	return res, nil
}

// applyGateMTraced canonicalizes the root and counts ApplyMOps once
// the descent has returned: a budget abort unwinds out of the descent
// past the count, so an aborted gate counts nothing and a gate that
// checked re-runs after a collection counts once.
func (p *Pkg) applyGateMTraced(m MEdge, g *appliedGate, s side) MEdge {
	var start time.Time
	if p.observer != nil {
		start = time.Now()
	}
	res := p.rootM(p.applyGateM(m, g, s))
	p.stats.ApplyMOps++
	if p.observer != nil {
		p.traced(OpApplyGateM, start)
	}
	return res
}

// applyGateM is the weight-factored entry: the product is bilinear,
// so the root weight passes through and the recursion works on node
// pointers only, keeping the cache keys structural.
func (p *Pkg) applyGateM(m MEdge, g *appliedGate, s side) MEdge {
	if m.IsZero() {
		return MZero()
	}
	if m.N == mTerminal || m.N.V < g.target {
		panic(fmt.Sprintf("dd: ApplyGateM%c operand does not span target level %d", "LR"[s], g.target))
	}
	res := p.applyMRec(m.N, g, s)
	return MEdge{W: res.W * m.W, N: res.N}
}

// activeRow returns the control value of g's control at level v: the
// t-row index whose quadrants receive the gate.
func activeRow(g *appliedGate, v Var) int {
	if g.neg>>uint(v)&1 == 1 {
		return 0
	}
	return 1
}

// applyMRec rebuilds the diagram under n with the gate multiplied in
// on side s. n is at or above the target level; zero stubs never
// reach here (G·0 = 0 is handled at the edges).
func (p *Pkg) applyMRec(n *MNode, g *appliedGate, s side) MEdge {
	v := n.V
	if n == p.identNode(v) {
		// G·I = I·G = G over the remaining levels; nothing below is
		// walked.
		p.stats.ApplyMIdentitySkips++
		return p.gateSubDD(g, v)
	}
	p.stats.CacheLookups++
	p.stats.ApplyMCTLookups++
	key := applyMKey{m: n, g: g}
	h := hashApplyM(key)
	if res, ok := p.applyMCache[s].lookup(h, key, p.gen); ok {
		p.stats.CacheHits++
		p.stats.ApplyMCTHits++
		return res
	}
	var res MEdge
	switch {
	case v == g.target:
		res = p.applyMAtTarget(n, g, s)
	case (g.pos|g.neg)>>uint(v)&1 == 1:
		// Control level above the target: the gate is diagonal here, so
		// only the active t-row recurses — the inactive quadrants are
		// the identity block the generic multiply would have walked.
		active := activeRow(g, v)
		var e [4]MEdge
		for q := range e {
			if quad[s][q]>>1 == active {
				e[q] = p.applyMEdge(n.E[q], g, s)
			} else {
				e[q] = n.E[q]
			}
		}
		res = p.makeMNode(v, e)
	default:
		// Free level above the target: descend all four quadrants.
		var e [4]MEdge
		for q := range e {
			e[q] = p.applyMEdge(n.E[q], g, s)
		}
		res = p.makeMNode(v, e)
	}
	if p.applyMCache[s].store(h, key, res, p.gen, &p.stats) {
		p.stats.ApplyMCTEvictions++
	}
	return res
}

// applyMEdge recurses through an edge, shortcutting zero stubs.
func (p *Pkg) applyMEdge(e MEdge, g *appliedGate, s side) MEdge {
	if e.IsZero() {
		return MZero()
	}
	r := p.applyMRec(e.N, g, s)
	return MEdge{W: r.W * e.W, N: r.N}
}

// applyMAtTarget combines the target node's quadrants with the four
// gate entries: out[t(i,j)] = Σₖ u[t(i,k)]·M[t(k,j)]. With controls
// below the target, each result quadrant is merged with the original
// one, keeping the gated combination only where all remaining
// controls are satisfied.
func (p *Pkg) applyMAtTarget(n *MNode, g *appliedGate, s side) MEdge {
	t := &quad[s]
	var out [4]MEdge
	for q := range out {
		i, j := t[q]>>1, t[q]&1
		y := p.addM(scaleMRaw(g.u[t[2*i]], n.E[t[j]]), scaleMRaw(g.u[t[2*i+1]], n.E[t[2+j]]))
		if g.belowMask != 0 {
			y = p.mergeM(n.E[q], y, g, s)
		}
		out[q] = y
	}
	return p.makeMNode(n.V, out)
}

// mergeM computes P_inact·x + P_act·y (x·P_inact + y·P_act on the
// right) in one pairwise descent, where P_act projects onto the
// subspace in which every control of g at or below the operands'
// level is satisfied and P_inact is its complement; left-multiplying
// by a diagonal projector restricts rows, right-multiplying restricts
// columns. The at-target combination passes x = the original quadrant
// and y = the plain gated combination, so the single descent replaces
// materializing both split components of all four quadrants plus the
// recombining additions. If one operand is zero the result is a pure
// projection, served by the split cache.
func (p *Pkg) mergeM(x, y MEdge, g *appliedGate, s side) MEdge {
	if x.IsZero() {
		act, _ := p.splitM(y, g, s)
		return act
	}
	if y.IsZero() {
		_, inact := p.splitM(x, g, s)
		return inact
	}
	n := x.N
	if n == mTerminal || g.belowMask&(1<<uint(n.V+1)-1) == 0 {
		// No controls remain at or below this level: fully active.
		return y
	}
	r := p.cn.Lookup(y.W / x.W)
	p.stats.CacheLookups++
	p.stats.ApplyMCTLookups++
	key := mergeMKey{x: n, y: y.N, g: g, r: r}
	h := hashMergeM(key)
	if res, ok := p.applyMMerge[s].lookup(h, key, p.gen); ok {
		p.stats.CacheHits++
		p.stats.ApplyMCTHits++
		return scaleMRaw(x.W, res)
	}
	v := n.V
	yn := MEdge{W: r, N: y.N}
	control := g.belowMask>>uint(v)&1 == 1
	active := activeRow(g, v)
	var out [4]MEdge
	for q := range out {
		if control && quad[s][q]>>1 != active {
			out[q] = n.E[q]
		} else {
			out[q] = p.mergeM(n.E[q], mEdgeAt(yn, q), g, s)
		}
	}
	res := p.makeMNode(v, out)
	if p.applyMMerge[s].store(h, key, res, p.gen, &p.stats) {
		p.stats.ApplyMCTEvictions++
	}
	return scaleMRaw(x.W, res)
}

// mEdgeAt returns child i of the (weighted) edge e, folding e's weight
// in; e is never terminal here (the caller checked the level).
func mEdgeAt(e MEdge, i int) MEdge {
	c := e.N.E[i]
	if c.IsZero() {
		return MZero()
	}
	return MEdge{W: e.W * c.W, N: c.N}
}

// splitM decomposes e = act + inact, where act is P·e (e·P on the
// right) for the projector P onto the subspace in which every control
// of g below the target is satisfied. Both components are built
// directly (no subtraction), memoized per (node, gate) and side.
func (p *Pkg) splitM(e MEdge, g *appliedGate, s side) (act, inact MEdge) {
	if e.IsZero() {
		return MZero(), MZero()
	}
	n := e.N
	if n == mTerminal || g.belowMask&(1<<uint(n.V+1)-1) == 0 {
		// No controls remain at or below this level: fully active.
		return e, MZero()
	}
	p.stats.CacheLookups++
	p.stats.ApplyMCTLookups++
	key := applyMKey{m: n, g: g}
	h := hashApplyM(key)
	if pr, ok := p.applyMSplit[s].lookup(h, key, p.gen); ok {
		p.stats.CacheHits++
		p.stats.ApplyMCTHits++
		return scaleMRaw(e.W, pr.act), scaleMRaw(e.W, pr.inact)
	}
	v := n.V
	control := g.belowMask>>uint(v)&1 == 1
	active := activeRow(g, v)
	var actKids, inactKids [4]MEdge
	for q := range actKids {
		if control && quad[s][q]>>1 != active {
			actKids[q], inactKids[q] = MZero(), n.E[q]
		} else {
			actKids[q], inactKids[q] = p.splitM(n.E[q], g, s)
		}
	}
	pr := mPair{act: p.makeMNode(v, actKids), inact: p.makeMNode(v, inactKids)}
	if p.applyMSplit[s].store(h, key, pr, p.gen, &p.stats) {
		p.stats.ApplyMCTEvictions++
	}
	return scaleMRaw(e.W, pr.act), scaleMRaw(e.W, pr.inact)
}

// scaleMRaw multiplies an edge weight without canonicalizing, like
// every intermediate weight: makeMNode canonicalizes the child weights
// it stores, and the exported entry points canonicalize the root.
func scaleMRaw(w complex128, e MEdge) MEdge {
	if w == 0 || e.IsZero() {
		return MZero()
	}
	return MEdge{W: w * e.W, N: e.N}
}
