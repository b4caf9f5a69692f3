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
// touches only what the gate changes:
//
//   - Levels above every involved qubit recurse all four quadrants
//     (shared subdiagrams collapse into apply-cache hits).
//   - A control level above the target splits once: for a left apply
//     the inactive ROW quadrants pass through untouched, for a right
//     apply the inactive COLUMN quadrants do — only the active pair
//     recurses.
//   - At the target level the quadrants are combined with the four
//     gate entries: left combines rows ((G·M)ᵢⱼ = Σₖ uᵢₖ·Mₖⱼ), right
//     combines columns ((M·G)ᵢⱼ = Σₖ Mᵢₖ·uₖⱼ).
//   - Controls below the target are resolved by a projector merge:
//     the gated combination y is computed as if the controls were
//     satisfied everywhere, then one pairwise descent per quadrant
//     forms P_inact·x + P_act·y — the original quadrant x where a
//     remaining control fails, the gated y where they all hold (rows
//     on the left, columns on the right). The zero-operand corners
//     fall back to memoized single-sided projections.
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

// applyMKey keys the matrix-apply compute tables: the matrix node plus
// the interned gate pointer. The left/right orientations and the
// row/column split decompositions use separate tables, so one key
// shape serves all four.
type (
	applyMKey struct {
		m *MNode
		g *appliedGate
	}
	mPair struct {
		act, inact MEdge
	}
	// mergeMKey keys the projector-merge recursion P_inact·x + P_act·y
	// (mergeRowsML/mergeColsMR): both nodes, the gate, and the residual
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
	return p.applyGateMLTraced(m, p.internGate(u, target, controls))
}

// ApplyGateMR computes the right product M·G, the orientation the
// alternating verify scheme uses to consume inverted gates of the
// second circuit.
func (p *Pkg) ApplyGateMR(m MEdge, u GateMatrix, target int, controls ...Control) MEdge {
	return p.applyGateMRTraced(m, p.internGate(u, target, controls))
}

// ApplyGateMLChecked is ApplyGateML under the node budget (see
// budget.go): it returns a *ResourceError instead of growing the
// unique tables past MaxNodes, leaving the operand diagram intact.
func (p *Pkg) ApplyGateMLChecked(m MEdge, u GateMatrix, target int, controls ...Control) (MEdge, error) {
	g := p.internGate(u, target, controls)
	p.IncRefM(m)
	defer p.DecRefM(m)
	var res MEdge
	if err := p.checked(func() { res = p.applyGateMLTraced(m, g) }); err != nil {
		return MZero(), err
	}
	return res, nil
}

// ApplyGateMRChecked is ApplyGateMR under the node budget.
func (p *Pkg) ApplyGateMRChecked(m MEdge, u GateMatrix, target int, controls ...Control) (MEdge, error) {
	g := p.internGate(u, target, controls)
	p.IncRefM(m)
	defer p.DecRefM(m)
	var res MEdge
	if err := p.checked(func() { res = p.applyGateMRTraced(m, g) }); err != nil {
		return MZero(), err
	}
	return res, nil
}

func (p *Pkg) applyGateMLTraced(m MEdge, g *appliedGate) MEdge {
	p.stats.ApplyMOps++
	if p.observer == nil {
		return p.applyGateML(m, g)
	}
	start := time.Now()
	res := p.applyGateML(m, g)
	p.traced(OpApplyGateM, start)
	return res
}

func (p *Pkg) applyGateMRTraced(m MEdge, g *appliedGate) MEdge {
	p.stats.ApplyMOps++
	if p.observer == nil {
		return p.applyGateMR(m, g)
	}
	start := time.Now()
	res := p.applyGateMR(m, g)
	p.traced(OpApplyGateM, start)
	return res
}

// applyGateML is the weight-factored entry: the product is bilinear,
// so the root weight passes through and the recursion works on node
// pointers only, keeping the cache keys structural.
func (p *Pkg) applyGateML(m MEdge, g *appliedGate) MEdge {
	if m.IsZero() {
		return MZero()
	}
	if m.N == mTerminal || m.N.V < g.target {
		panic(fmt.Sprintf("dd: ApplyGateML operand does not span target level %d", g.target))
	}
	res := p.applyMLRec(m.N, g)
	return MEdge{W: p.cn.Lookup(res.W * m.W), N: res.N}
}

func (p *Pkg) applyGateMR(m MEdge, g *appliedGate) MEdge {
	if m.IsZero() {
		return MZero()
	}
	if m.N == mTerminal || m.N.V < g.target {
		panic(fmt.Sprintf("dd: ApplyGateMR operand does not span target level %d", g.target))
	}
	res := p.applyMRRec(m.N, g)
	return MEdge{W: p.cn.Lookup(res.W * m.W), N: res.N}
}

// applyMLRec rebuilds the diagram under n with the gate multiplied in
// from the left. n is at or above the target level; zero stubs never
// reach here (G·0 = 0 is handled at the edges).
func (p *Pkg) applyMLRec(n *MNode, g *appliedGate) MEdge {
	v := n.V
	if n == p.identNode(v) {
		// G·I = G over the remaining levels; nothing below is walked.
		p.stats.ApplyMIdentitySkips++
		return p.gateSubDD(g, v)
	}
	p.stats.CacheLookups++
	p.stats.ApplyMCTLookups++
	key := applyMKey{m: n, g: g}
	h := hashApplyM(key)
	if res, ok := p.applyMLCache.lookup(h, key, p.gen); ok && !p.CachesDisabled {
		p.stats.CacheHits++
		p.stats.ApplyMCTHits++
		return res
	}
	var res MEdge
	switch {
	case v == g.target:
		res = p.applyMLAtTarget(n, g)
	case (g.pos|g.neg)>>uint(v)&1 == 1:
		// Control level above the target: the gate is diagonal here, so
		// only the active row recurses — the inactive row quadrants are
		// the identity block the generic multiply would have walked.
		active := 1
		if g.neg>>uint(v)&1 == 1 {
			active = 0
		}
		var e [4]MEdge
		for j := 0; j < 2; j++ {
			e[2*(1-active)+j] = n.E[2*(1-active)+j]
			e[2*active+j] = p.applyMLEdge(n.E[2*active+j], g)
		}
		res = p.makeMNode(v, e)
	default:
		// Free level above the target: descend all four quadrants.
		var e [4]MEdge
		for i := range e {
			e[i] = p.applyMLEdge(n.E[i], g)
		}
		res = p.makeMNode(v, e)
	}
	if p.applyMLCache.store(h, key, res, p.gen, &p.stats) {
		p.stats.ApplyMCTEvictions++
	}
	return res
}

// applyMRRec is the right-product mirror of applyMLRec: the gate acts
// on the column index, so control levels pass the inactive COLUMN
// through and the target combines quadrants along columns.
func (p *Pkg) applyMRRec(n *MNode, g *appliedGate) MEdge {
	v := n.V
	if n == p.identNode(v) {
		// I·G = G over the remaining levels.
		p.stats.ApplyMIdentitySkips++
		return p.gateSubDD(g, v)
	}
	p.stats.CacheLookups++
	p.stats.ApplyMCTLookups++
	key := applyMKey{m: n, g: g}
	h := hashApplyM(key)
	if res, ok := p.applyMRCache.lookup(h, key, p.gen); ok && !p.CachesDisabled {
		p.stats.CacheHits++
		p.stats.ApplyMCTHits++
		return res
	}
	var res MEdge
	switch {
	case v == g.target:
		res = p.applyMRAtTarget(n, g)
	case (g.pos|g.neg)>>uint(v)&1 == 1:
		active := 1
		if g.neg>>uint(v)&1 == 1 {
			active = 0
		}
		var e [4]MEdge
		for i := 0; i < 2; i++ {
			e[2*i+1-active] = n.E[2*i+1-active]
			e[2*i+active] = p.applyMREdge(n.E[2*i+active], g)
		}
		res = p.makeMNode(v, e)
	default:
		var e [4]MEdge
		for i := range e {
			e[i] = p.applyMREdge(n.E[i], g)
		}
		res = p.makeMNode(v, e)
	}
	if p.applyMRCache.store(h, key, res, p.gen, &p.stats) {
		p.stats.ApplyMCTEvictions++
	}
	return res
}

// applyMLEdge / applyMREdge recurse through an edge, shortcutting zero
// stubs.
func (p *Pkg) applyMLEdge(e MEdge, g *appliedGate) MEdge {
	if e.IsZero() {
		return MZero()
	}
	r := p.applyMLRec(e.N, g)
	return MEdge{W: r.W * e.W, N: r.N}
}

func (p *Pkg) applyMREdge(e MEdge, g *appliedGate) MEdge {
	if e.IsZero() {
		return MZero()
	}
	r := p.applyMRRec(e.N, g)
	return MEdge{W: r.W * e.W, N: r.N}
}

// applyMLAtTarget combines the target node's quadrants with the four
// gate entries along rows: (G·M)ᵢⱼ = Σₖ uᵢₖ·Mₖⱼ. With controls below
// the target, each quadrant is first row-split into the component
// where all remaining controls are satisfied (which receives the gate)
// and the untouched remainder.
func (p *Pkg) applyMLAtTarget(n *MNode, g *appliedGate) MEdge {
	var out [4]MEdge
	if g.belowMask == 0 {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				out[2*i+j] = p.addM(scaleMRaw(g.u[2*i], n.E[j]), scaleMRaw(g.u[2*i+1], n.E[2+j]))
			}
		}
		return p.makeMNode(n.V, out)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			y := p.addM(scaleMRaw(g.u[2*i], n.E[j]), scaleMRaw(g.u[2*i+1], n.E[2+j]))
			out[2*i+j] = p.mergeRowsML(n.E[2*i+j], y, g)
		}
	}
	return p.makeMNode(n.V, out)
}

// applyMRAtTarget combines quadrants along columns:
// (M·G)ᵢⱼ = Σₖ Mᵢₖ·uₖⱼ; below-target controls column-split.
func (p *Pkg) applyMRAtTarget(n *MNode, g *appliedGate) MEdge {
	var out [4]MEdge
	if g.belowMask == 0 {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				out[2*i+j] = p.addM(scaleMRaw(g.u[j], n.E[2*i]), scaleMRaw(g.u[2+j], n.E[2*i+1]))
			}
		}
		return p.makeMNode(n.V, out)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			y := p.addM(scaleMRaw(g.u[j], n.E[2*i]), scaleMRaw(g.u[2+j], n.E[2*i+1]))
			out[2*i+j] = p.mergeColsMR(n.E[2*i+j], y, g)
		}
	}
	return p.makeMNode(n.V, out)
}

// mergeRowsML computes P_inact·x + P_act·y in one pairwise descent,
// where P_act projects onto the row subspace in which every control of
// g at or below the operands' level is satisfied and P_inact is its
// complement. The at-target combination passes x = the original
// quadrant and y = the plain gated combination, so the single descent
// replaces materializing both split components of all four quadrants
// plus the recombining additions. If one operand is zero the result is
// a pure projection, served by the split cache.
func (p *Pkg) mergeRowsML(x, y MEdge, g *appliedGate) MEdge {
	if x.IsZero() {
		act, _ := p.splitRowsML(y, g)
		return act
	}
	if y.IsZero() {
		_, inact := p.splitRowsML(x, g)
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
	if res, ok := p.applyMLMerge.lookup(h, key, p.gen); ok && !p.CachesDisabled {
		p.stats.CacheHits++
		p.stats.ApplyMCTHits++
		return scaleMRaw(x.W, res)
	}
	v := n.V
	yn := MEdge{W: r, N: y.N}
	var out [4]MEdge
	if g.belowMask>>uint(v)&1 == 1 {
		active := 1
		if g.neg>>uint(v)&1 == 1 {
			active = 0
		}
		for j := 0; j < 2; j++ {
			out[2*active+j] = p.mergeRowsML(n.E[2*active+j], mEdgeAt(yn, 2*active+j), g)
			out[2*(1-active)+j] = n.E[2*(1-active)+j]
		}
	} else {
		for i := range out {
			out[i] = p.mergeRowsML(n.E[i], mEdgeAt(yn, i), g)
		}
	}
	res := p.makeMNode(v, out)
	if p.applyMLMerge.store(h, key, res, p.gen, &p.stats) {
		p.stats.ApplyMCTEvictions++
	}
	return scaleMRaw(x.W, res)
}

// mergeColsMR is the column mirror: x·P_inact + y·P_act, the control
// projector restricting columns.
func (p *Pkg) mergeColsMR(x, y MEdge, g *appliedGate) MEdge {
	if x.IsZero() {
		act, _ := p.splitColsMR(y, g)
		return act
	}
	if y.IsZero() {
		_, inact := p.splitColsMR(x, g)
		return inact
	}
	n := x.N
	if n == mTerminal || g.belowMask&(1<<uint(n.V+1)-1) == 0 {
		return y
	}
	r := p.cn.Lookup(y.W / x.W)
	p.stats.CacheLookups++
	p.stats.ApplyMCTLookups++
	key := mergeMKey{x: n, y: y.N, g: g, r: r}
	h := hashMergeM(key)
	if res, ok := p.applyMRMerge.lookup(h, key, p.gen); ok && !p.CachesDisabled {
		p.stats.CacheHits++
		p.stats.ApplyMCTHits++
		return scaleMRaw(x.W, res)
	}
	v := n.V
	yn := MEdge{W: r, N: y.N}
	var out [4]MEdge
	if g.belowMask>>uint(v)&1 == 1 {
		active := 1
		if g.neg>>uint(v)&1 == 1 {
			active = 0
		}
		for i := 0; i < 2; i++ {
			out[2*i+active] = p.mergeColsMR(n.E[2*i+active], mEdgeAt(yn, 2*i+active), g)
			out[2*i+1-active] = n.E[2*i+1-active]
		}
	} else {
		for i := range out {
			out[i] = p.mergeColsMR(n.E[i], mEdgeAt(yn, i), g)
		}
	}
	res := p.makeMNode(v, out)
	if p.applyMRMerge.store(h, key, res, p.gen, &p.stats) {
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

// splitRowsML decomposes e = act + inact, where act is P·e for the
// projector P onto the row subspace in which every control of g below
// the target is satisfied — left-multiplying by a diagonal projector
// restricts rows. Both components are built directly (no subtraction),
// memoized per (node, gate).
func (p *Pkg) splitRowsML(e MEdge, g *appliedGate) (act, inact MEdge) {
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
	if pr, ok := p.applyMLSplit.lookup(h, key, p.gen); ok && !p.CachesDisabled {
		p.stats.CacheHits++
		p.stats.ApplyMCTHits++
		return scaleMRaw(e.W, pr.act), scaleMRaw(e.W, pr.inact)
	}
	v := n.V
	var pr mPair
	if g.belowMask>>uint(v)&1 == 1 {
		active := 1
		if g.neg>>uint(v)&1 == 1 {
			active = 0
		}
		var actKids, inactKids [4]MEdge
		for j := 0; j < 2; j++ {
			cAct, cInact := p.splitRowsML(n.E[2*active+j], g)
			actKids[2*active+j] = cAct
			actKids[2*(1-active)+j] = MZero()
			inactKids[2*active+j] = cInact
			inactKids[2*(1-active)+j] = n.E[2*(1-active)+j]
		}
		pr.act = p.makeMNode(v, actKids)
		pr.inact = p.makeMNode(v, inactKids)
	} else {
		var actKids, inactKids [4]MEdge
		for i := range actKids {
			actKids[i], inactKids[i] = p.splitRowsML(n.E[i], g)
		}
		pr.act = p.makeMNode(v, actKids)
		pr.inact = p.makeMNode(v, inactKids)
	}
	if p.applyMLSplit.store(h, key, pr, p.gen, &p.stats) {
		p.stats.ApplyMCTEvictions++
	}
	return scaleMRaw(e.W, pr.act), scaleMRaw(e.W, pr.inact)
}

// splitColsMR is the column mirror: act is e·P, right-multiplying by
// the control projector restricts columns.
func (p *Pkg) splitColsMR(e MEdge, g *appliedGate) (act, inact MEdge) {
	if e.IsZero() {
		return MZero(), MZero()
	}
	n := e.N
	if n == mTerminal || g.belowMask&(1<<uint(n.V+1)-1) == 0 {
		return e, MZero()
	}
	p.stats.CacheLookups++
	p.stats.ApplyMCTLookups++
	key := applyMKey{m: n, g: g}
	h := hashApplyM(key)
	if pr, ok := p.applyMRSplit.lookup(h, key, p.gen); ok && !p.CachesDisabled {
		p.stats.CacheHits++
		p.stats.ApplyMCTHits++
		return scaleMRaw(e.W, pr.act), scaleMRaw(e.W, pr.inact)
	}
	v := n.V
	var pr mPair
	if g.belowMask>>uint(v)&1 == 1 {
		active := 1
		if g.neg>>uint(v)&1 == 1 {
			active = 0
		}
		var actKids, inactKids [4]MEdge
		for i := 0; i < 2; i++ {
			cAct, cInact := p.splitColsMR(n.E[2*i+active], g)
			actKids[2*i+active] = cAct
			actKids[2*i+1-active] = MZero()
			inactKids[2*i+active] = cInact
			inactKids[2*i+1-active] = n.E[2*i+1-active]
		}
		pr.act = p.makeMNode(v, actKids)
		pr.inact = p.makeMNode(v, inactKids)
	} else {
		var actKids, inactKids [4]MEdge
		for i := range actKids {
			actKids[i], inactKids[i] = p.splitColsMR(n.E[i], g)
		}
		pr.act = p.makeMNode(v, actKids)
		pr.inact = p.makeMNode(v, inactKids)
	}
	if p.applyMRSplit.store(h, key, pr, p.gen, &p.stats) {
		p.stats.ApplyMCTEvictions++
	}
	return scaleMRaw(e.W, pr.act), scaleMRaw(e.W, pr.inact)
}

// scaleMRaw multiplies an edge weight without canonicalizing: the
// result always flows into addM/makeMNode, which canonicalize
// downstream.
func scaleMRaw(w complex128, e MEdge) MEdge {
	if w == 0 || e.IsZero() {
		return MZero()
	}
	return MEdge{W: w * e.W, N: e.N}
}

// gateInverse returns the interned descriptor of the adjoint gate:
// same controls (control projectors are self-adjoint), conjugate-
// transposed 2×2 block. The two descriptors link to each other, so the
// inverse of the inverse is the original pointer and repeated
// inversions never re-intern — the regression guard that the gate
// cache is not double-populated.
func (p *Pkg) gateInverse(g *appliedGate) *appliedGate {
	if g.inv != nil {
		return g.inv
	}
	u := GateMatrix{
		complex(real(g.u[0]), -imag(g.u[0])),
		complex(real(g.u[2]), -imag(g.u[2])),
		complex(real(g.u[1]), -imag(g.u[1])),
		complex(real(g.u[3]), -imag(g.u[3])),
	}
	inv := p.internGate(u, g.target, controlsOf(g))
	g.inv = inv
	inv.inv = g
	return inv
}

// controlsOf reconstructs the control slice from the descriptor masks.
func controlsOf(g *appliedGate) []Control {
	var ctl []Control
	for m := g.pos; m != 0; m &= m - 1 {
		ctl = append(ctl, Control{Qubit: bitsLen64(m&-m) - 1})
	}
	for m := g.neg; m != 0; m &= m - 1 {
		ctl = append(ctl, Control{Qubit: bitsLen64(m&-m) - 1, Neg: true})
	}
	return ctl
}

// registerGateRoot records that node n is the root of g's cached gate
// diagram this generation, so analysis operations receiving a matrix
// edge can recognize interned gates and apply their inverse via the
// kernel instead of materializing a ConjTranspose.
func (p *Pkg) registerGateRoot(n *MNode, g *appliedGate) {
	if p.gateRootsGen != p.gen || p.gateRoots == nil {
		p.gateRoots = make(map[*MNode]*appliedGate)
		p.gateRootsGen = p.gen
	}
	p.gateRoots[n] = g
}

// gateFromRoot resolves a matrix node back to the gate descriptor
// whose cached diagram it roots, or nil.
func (p *Pkg) gateFromRoot(n *MNode) *appliedGate {
	if p.gateRootsGen != p.gen {
		return nil
	}
	g := p.gateRoots[n]
	if g == nil || g.ddGen != p.gen || g.dd.N != n {
		return nil
	}
	return g
}
