package dd

// Direct gate application: the simulation hot path applies a 2×2 gate
// (with optional positive/negative controls) to a vector DD by
// recursive descent, without ever materializing the gate as a matrix
// diagram. A full-register gate matrix is 99% identity structure; the
// generic MultMV recursion dutifully multiplies all of it, while the
// descent below only rebuilds the levels the gate actually touches —
// the "do not represent the identity parts at all" insight of
// Sander et al. (Stripping Quantum Decision Diagrams of their
// Identity, 2024) applied to the hot path:
//
//   - Levels above every involved qubit are walked and re-interned
//     unchanged (shared subdiagrams collapse into apply-cache hits).
//   - A control level above the target splits once: the inactive
//     branch is passed through untouched, only the active branch
//     recurses.
//   - At the target level the two successors are combined with the
//     four gate entries: r0 = u00·e0 + u01·e1, r1 = u10·e0 + u11·e1.
//   - Controls below the target split each successor into the
//     component where all remaining controls are satisfied (which
//     receives the gate) and the untouched remainder.
//
// Gate descriptions are interned per package: numerically equal
// (matrix, target, controls) triples canonicalize to one *appliedGate,
// whose pointer identity keys the apply compute tables and carries the
// per-generation cached matrix DD for the operations that still need
// one (verify's functionality construction).

import (
	"fmt"
	"time"

	"quantumdd/internal/cnum"
)

// gateSig is the canonical identity of a gate application: matrix
// entries identified through the complex table, the target level, and
// the control lines as positive/negative bitmasks. Comparable, so it
// keys the intern map directly.
type gateSig struct {
	u      [4]complex128
	target int
	pos    uint64 // positive-control qubit mask
	neg    uint64 // negative-control qubit mask
}

// appliedGate is an interned gate application. Pointers are unique per
// package and live for the package lifetime (gates reference no
// nodes), so they serve as O(1) identities in compute-table keys.
type appliedGate struct {
	gateSig
	hash      uint64 // precomputed key hash over the signature
	hi        int    // highest involved level (target or topmost control)
	belowMask uint64 // controls strictly below the target

	// Per-generation cached matrix DD of this gate (MakeGateDD). The
	// edge is only valid while ddGen matches the package generation: a
	// garbage collection may sweep and recycle unreferenced nodes,
	// and it bumps the generation doing so.
	dd    MEdge
	ddGen uint64

	// Per-generation truncated gate diagrams for the identity fast
	// path of the matrix kernel: sub[v] is the gate lowered over levels
	// 0..v with only the controls at or below v (gateSubDD).
	sub    []MEdge
	subGen uint64
}

// internGate validates and canonicalizes a gate application and
// returns its unique per-package descriptor.
func (p *Pkg) internGate(u GateMatrix, target int, controls []Control) *appliedGate {
	if target < 0 || target >= p.nqubits {
		panic(fmt.Sprintf("dd: gate target %d out of range [0,%d)", target, p.nqubits))
	}
	sig := gateSig{target: target}
	for i, w := range u {
		sig.u[i] = p.cn.Lookup(w)
	}
	for _, c := range controls {
		if c.Qubit < 0 || c.Qubit >= p.nqubits {
			panic(fmt.Sprintf("dd: control qubit %d out of range [0,%d)", c.Qubit, p.nqubits))
		}
		if c.Qubit == target {
			panic(fmt.Sprintf("dd: control qubit %d equals target", c.Qubit))
		}
		bit := uint64(1) << uint(c.Qubit)
		if (sig.pos|sig.neg)&bit != 0 {
			panic(fmt.Sprintf("dd: duplicate control qubit %d", c.Qubit))
		}
		if c.Neg {
			sig.neg |= bit
		} else {
			sig.pos |= bit
		}
	}
	if sig.u[1] == 0 && sig.u[2] == 0 && sig.u[0] == 1 && sig.pos != 0 {
		// diag(1,w): the phase fires iff the target and every positive
		// control all read 1, so target and positive controls are
		// interchangeable. Re-target to the lowest of that set — the
		// kernels then see the controls above the target, where the
		// descent passes them through instead of splitting sub-blocks.
		set := sig.pos | 1<<uint(sig.target)
		if low := bitsLen64(set&-set) - 1; low != sig.target {
			sig.pos = set &^ (1 << uint(low))
			sig.target = low
		}
	}
	if g, ok := p.gateIntern[sig]; ok {
		return g
	}
	g := &appliedGate{gateSig: sig, hi: sig.target, belowMask: (sig.pos | sig.neg) & (1<<uint(sig.target) - 1)}
	for m := sig.pos | sig.neg; m != 0; m &= m - 1 {
		if q := bitsLen64(m) - 1; q > g.hi {
			g.hi = q
		}
	}
	h := cnum.HashComplex(sig.u[0])
	for i := 1; i < 4; i++ {
		h = hashMix(h, cnum.HashComplex(sig.u[i]))
	}
	h = hashMix(h, uint64(sig.target)+1)
	h = hashMix(h, sig.pos)
	h = hashMix(h, sig.neg+0x9e3779b97f4a7c15)
	g.hash = h
	if p.gateIntern == nil {
		p.gateIntern = make(map[gateSig]*appliedGate)
	}
	p.gateIntern[sig] = g
	return g
}

// bitsLen64 is bits.Len64 without the import churn in this hot file.
func bitsLen64(x uint64) int {
	n := 0
	for x != 0 {
		x >>= 1
		n++
	}
	return n
}

// Compute-table keys of the kernel: the vector node plus the interned
// gate pointer. applySplit shares the key shape and caches the
// (active, inactive) control decomposition below the target.
type (
	applyVKey struct {
		v *VNode
		g *appliedGate
	}
	vPair struct {
		act, inact VEdge
	}
)

func hashApply(k applyVKey) uint64 { return hashMix(k.v.hash, k.g.hash) }

// ApplyGate applies the (multi-)controlled single-qubit gate u to the
// state v by direct recursive descent on the vector diagram — the
// specialized fast path equivalent to MultMV(MakeGateDD(u, target,
// controls...), v), without building the matrix diagram.
func (p *Pkg) ApplyGate(v VEdge, u GateMatrix, target int, controls ...Control) VEdge {
	return p.applyGateTraced(v, p.internGate(u, target, controls))
}

// ApplyGateChecked is ApplyGate under the node budget (see budget.go):
// it returns a *ResourceError instead of growing the unique tables
// past MaxNodes, leaving the operand diagram intact.
func (p *Pkg) ApplyGateChecked(v VEdge, u GateMatrix, target int, controls ...Control) (VEdge, error) {
	g := p.internGate(u, target, controls)
	p.IncRefV(v)
	defer p.DecRefV(v)
	var res VEdge
	if err := p.checked(func() { res = p.applyGateTraced(v, g) }); err != nil {
		return VZero(), err
	}
	return res, nil
}

func (p *Pkg) applyGateTraced(v VEdge, g *appliedGate) VEdge {
	if p.observer == nil {
		return p.rootV(p.applyGate(v, g))
	}
	start := time.Now()
	res := p.rootV(p.applyGate(v, g))
	p.traced(OpApplyGate, start)
	return res
}

// applyGate is the weight-factored entry: the gate is linear, so the
// root weight passes through and the recursion works on node pointers
// only, keeping the cache keys structural.
func (p *Pkg) applyGate(v VEdge, g *appliedGate) VEdge {
	if v.IsZero() {
		return VZero()
	}
	if v.N == vTerminal || v.N.V < g.target {
		panic(fmt.Sprintf("dd: ApplyGate operand does not span target level %d", g.target))
	}
	res := p.applyRec(v.N, g)
	return VEdge{W: res.W * v.W, N: res.N}
}

// applyRec rebuilds the diagram under n with the gate applied. n is at
// or above the target level; zero stubs never reach here (U·0 = 0 is
// handled at the edges).
func (p *Pkg) applyRec(n *VNode, g *appliedGate) VEdge {
	p.stats.CacheLookups++
	p.stats.ApplyCTLookups++
	key := applyVKey{v: n, g: g}
	h := hashApply(key)
	if res, ok := p.applyCache.lookup(h, key, p.gen); ok {
		p.stats.CacheHits++
		p.stats.ApplyCTHits++
		return res
	}
	v := n.V
	var res VEdge
	switch {
	case v == g.target:
		res = p.applyAtTarget(n, g)
	case (g.pos|g.neg)>>uint(v)&1 == 1:
		// Control level above the target: the inactive branch is
		// untouched — the identity block the generic multiply would
		// have walked node by node.
		active := 1
		if g.neg>>uint(v)&1 == 1 {
			active = 0
		}
		var e [2]VEdge
		e[1-active] = n.E[1-active]
		e[active] = p.applyEdge(n.E[active], g)
		res = p.makeVNode(v, e)
	default:
		// Free level above the target: descend both branches.
		res = p.makeVNode(v, [2]VEdge{p.applyEdge(n.E[0], g), p.applyEdge(n.E[1], g)})
	}
	if p.applyCache.store(h, key, res, p.gen, &p.stats) {
		p.stats.ApplyCTEvictions++
	}
	return res
}

// applyEdge recurses through an edge, shortcutting zero stubs.
func (p *Pkg) applyEdge(e VEdge, g *appliedGate) VEdge {
	if e.IsZero() {
		return VZero()
	}
	r := p.applyRec(e.N, g)
	return VEdge{W: r.W * e.W, N: r.N}
}

// applyAtTarget combines the target node's successors with the four
// gate entries. With controls below the target, each successor is
// first split into the component where all remaining controls are
// satisfied (which receives the gate) and the untouched remainder.
func (p *Pkg) applyAtTarget(n *VNode, g *appliedGate) VEdge {
	e0, e1 := n.E[0], n.E[1]
	if g.belowMask == 0 {
		var out [2]VEdge
		for i := 0; i < 2; i++ {
			out[i] = p.addV(scaleV(g.u[2*i], e0), scaleV(g.u[2*i+1], e1))
		}
		return p.makeVNode(n.V, out)
	}
	a0, i0 := p.splitControls(e0, g)
	a1, i1 := p.splitControls(e1, g)
	inact := [2]VEdge{i0, i1}
	var out [2]VEdge
	for i := 0; i < 2; i++ {
		gated := p.addV(scaleV(g.u[2*i], a0), scaleV(g.u[2*i+1], a1))
		out[i] = p.addV(inact[i], gated)
	}
	return p.makeVNode(n.V, out)
}

// splitControls decomposes e = act + inact, where act is the
// projection onto the subspace in which every control of g below the
// target is satisfied. Both components are built directly (no
// subtraction), memoized per (node, gate) in the split table.
func (p *Pkg) splitControls(e VEdge, g *appliedGate) (act, inact VEdge) {
	if e.IsZero() {
		return VZero(), VZero()
	}
	n := e.N
	if n == vTerminal || g.belowMask&(1<<uint(n.V+1)-1) == 0 {
		// No controls remain at or below this level: fully active.
		return e, VZero()
	}
	p.stats.CacheLookups++
	p.stats.ApplyCTLookups++
	key := applyVKey{v: n, g: g}
	h := hashApply(key)
	if pr, ok := p.applySplit.lookup(h, key, p.gen); ok {
		p.stats.CacheHits++
		p.stats.ApplyCTHits++
		return scaleV(e.W, pr.act), scaleV(e.W, pr.inact)
	}
	v := n.V
	var pr vPair
	if g.belowMask>>uint(v)&1 == 1 {
		active := 1
		if g.neg>>uint(v)&1 == 1 {
			active = 0
		}
		cAct, cInact := p.splitControls(n.E[active], g)
		var actKids, inactKids [2]VEdge
		actKids[active] = cAct
		actKids[1-active] = VZero()
		inactKids[active] = cInact
		inactKids[1-active] = n.E[1-active]
		pr.act = p.makeVNode(v, actKids)
		pr.inact = p.makeVNode(v, inactKids)
	} else {
		a0, i0 := p.splitControls(n.E[0], g)
		a1, i1 := p.splitControls(n.E[1], g)
		pr.act = p.makeVNode(v, [2]VEdge{a0, a1})
		pr.inact = p.makeVNode(v, [2]VEdge{i0, i1})
	}
	if p.applySplit.store(h, key, pr, p.gen, &p.stats) {
		p.stats.ApplyCTEvictions++
	}
	return scaleV(e.W, pr.act), scaleV(e.W, pr.inact)
}

// scaleV multiplies an edge weight without canonicalizing, like every
// intermediate weight: makeVNode canonicalizes the child weights it
// stores.
func scaleV(w complex128, e VEdge) VEdge {
	if w == 0 || e.IsZero() {
		return VZero()
	}
	return VEdge{W: w * e.W, N: e.N}
}

// MakeGateDD builds the matrix diagram of a (multi-)controlled
// single-qubit gate u acting on target, extended to the full register
// width with identities (the tensor-product extension of Ex. 3/8).
// Repeated requests for the same (matrix, target, controls) triple are
// served from a per-package cache until the next garbage collection:
// circuit-functionality construction (verify) re-lowers the same few
// gates hundreds of times.
func (p *Pkg) MakeGateDD(u GateMatrix, target int, controls ...Control) MEdge {
	g := p.internGate(u, target, controls)
	if g.ddGen == p.gen {
		p.stats.GateDDCacheHits++
		return g.dd
	}
	e := p.rootM(p.buildGateDDUpTo(g, p.nqubits-1))
	g.dd, g.ddGen = e, p.gen
	return e
}

// buildGateDDUpTo constructs the gate diagram level by level over the
// levels 0..hi only, taking the controls at or below hi from the
// descriptor masks. MakeGateDD calls it with the full register width;
// the matrix kernel's identity fast path requests truncated diagrams
// (gateSubDD, applygatem.go).
func (p *Pkg) buildGateDDUpTo(g *appliedGate, hi Var) MEdge {
	// Entry blocks of U as seen from just above the target level,
	// covering all levels below the target. The signature entries were
	// canonicalized by internGate.
	var em [4]MEdge
	for i, w := range g.u {
		em[i] = MEdge{W: w, N: mTerminal}
	}
	id := MOne() // identity over the levels processed so far
	for z := 0; z < g.target; z++ {
		bit := uint64(1) << uint(z)
		if (g.pos|g.neg)&bit != 0 {
			neg := g.neg&bit != 0
			for i := 0; i < 4; i++ {
				diag := i == 0 || i == 3
				inactive := MZero()
				if diag {
					inactive = id
				}
				if neg {
					em[i] = p.makeMNode(z, [4]MEdge{em[i], MZero(), MZero(), inactive})
				} else {
					em[i] = p.makeMNode(z, [4]MEdge{inactive, MZero(), MZero(), em[i]})
				}
			}
		} else {
			for i := 0; i < 4; i++ {
				em[i] = p.makeMNode(z, [4]MEdge{em[i], MZero(), MZero(), em[i]})
			}
		}
		id = p.makeMNode(z, [4]MEdge{id, MZero(), MZero(), id})
	}

	e := p.makeMNode(g.target, em)
	id = p.makeMNode(g.target, [4]MEdge{id, MZero(), MZero(), id})

	for z := g.target + 1; z <= hi; z++ {
		bit := uint64(1) << uint(z)
		switch {
		case g.neg&bit != 0:
			e = p.makeMNode(z, [4]MEdge{e, MZero(), MZero(), id})
		case g.pos&bit != 0:
			e = p.makeMNode(z, [4]MEdge{id, MZero(), MZero(), e})
		default:
			e = p.makeMNode(z, [4]MEdge{e, MZero(), MZero(), e})
		}
		id = p.makeMNode(z, [4]MEdge{id, MZero(), MZero(), id})
	}
	return e
}
