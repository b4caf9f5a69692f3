package dd

import (
	"math/cmplx"

	"quantumdd/internal/cnum"
)

// Cache keys. Weights are factored out of the operands wherever the
// operation allows it, so that cache hits depend only on structure:
//
//	M·V:      (wm·M)·(wv·V)        = wm·wv·(M·V)
//	A+B:      wa·A + wb·B          = wa·(A + (wb/wa)·B)
//	kron:     (wa·A)⊗(wb·B)        = wa·wb·(A⊗B)
//	conj-T:   (w·M)†               = conj(w)·M†
//
// The residual ratio in the addition key is canonicalized through the
// complex table so numerically equal ratios collide. It is the only
// weight these recursions canonicalize: the results they return carry
// raw weights, and the exported entry points canonicalize the root.
//
// Two addends into one node need no key at all, as in the MQT DD
// package (arXiv 2108.07027):
//
//	wa·N + wb·N = (wa+wb)·N
//
// so addV and addM return the summed edge without a ratio lookup, a
// compute-table probe or a descent, and the zero edge when the sum is
// within the tolerance of zero.
type (
	addVKey struct {
		a, b *VNode
		r    complex128
	}
	addMKey struct {
		a, b *MNode
		r    complex128
	}
	mulMVKey struct {
		m *MNode
		v *VNode
	}
	mulMMKey struct {
		a, b *MNode
	}
	kronKey struct {
		a, b *MNode
	}
)

// The exported entry points (AddV, MultMV, …) live in trace.go: they
// canonicalize the root the recursive bodies below return, and time
// them when an observer is installed. The recursion calls the
// unexported bodies directly, so only top-level invocations are
// observed and only their roots go through the complex table.

// addV is the recursive body of AddV.
func (p *Pkg) addV(a, b VEdge) VEdge {
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	if a.N == vTerminal && b.N == vTerminal {
		return VEdge{W: a.W + b.W, N: vTerminal}
	}
	if a.N == b.N {
		w := a.W + b.W
		if cnum.IsZero(w, p.cn.Tolerance()) {
			return VZero()
		}
		return VEdge{W: w, N: a.N}
	}
	if a.N.V != b.N.V {
		panic("dd: AddV operands have mismatched levels")
	}
	r := p.cn.Lookup(b.W / a.W)
	key := addVKey{a: a.N, b: b.N, r: r}
	h := hashAddV(key)
	if res, ok := p.addVCache.lookup(h, key, p.gen); ok {
		return VEdge{W: res.W * a.W, N: res.N}
	}
	v := a.N.V
	var e [2]VEdge
	for i := 0; i < 2; i++ {
		ae := a.N.E[i]
		be := b.N.E[i]
		e[i] = p.addV(ae, VEdge{W: r * be.W, N: be.N})
	}
	res := p.makeVNode(v, e)
	p.addVCache.store(h, key, res, p.gen)
	return VEdge{W: res.W * a.W, N: res.N}
}

// addM is the recursive body of AddM.
func (p *Pkg) addM(a, b MEdge) MEdge {
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	if a.N == mTerminal && b.N == mTerminal {
		return MEdge{W: a.W + b.W, N: mTerminal}
	}
	if a.N == b.N {
		w := a.W + b.W
		if cnum.IsZero(w, p.cn.Tolerance()) {
			return MZero()
		}
		return MEdge{W: w, N: a.N}
	}
	if a.N.V != b.N.V {
		panic("dd: AddM operands have mismatched levels")
	}
	r := p.cn.Lookup(b.W / a.W)
	key := addMKey{a: a.N, b: b.N, r: r}
	h := hashAddM(key)
	if res, ok := p.addMCache.lookup(h, key, p.gen); ok {
		return MEdge{W: res.W * a.W, N: res.N}
	}
	v := a.N.V
	var e [4]MEdge
	for i := 0; i < 4; i++ {
		ae := a.N.E[i]
		be := b.N.E[i]
		e[i] = p.addM(ae, MEdge{W: r * be.W, N: be.N})
	}
	res := p.makeMNode(v, e)
	p.addMCache.store(h, key, res, p.gen)
	return MEdge{W: res.W * a.W, N: res.N}
}

// multMV is the recursive body of MultMV: the product is decomposed
// into the four quadrant sub-products, which are summed pairwise and
// recursed until only scalar operations remain.
func (p *Pkg) multMV(m MEdge, v VEdge) VEdge {
	if m.IsZero() || v.IsZero() {
		return VZero()
	}
	if m.N == mTerminal && v.N == vTerminal {
		return VEdge{W: m.W * v.W, N: vTerminal}
	}
	if m.N.V != v.N.V {
		panic("dd: MultMV operands have mismatched levels")
	}
	key := mulMVKey{m: m.N, v: v.N}
	h := hashMulMV(key)
	if res, ok := p.mulMV.lookup(h, key, p.gen); ok {
		return VEdge{W: res.W * m.W * v.W, N: res.N}
	}
	lv := m.N.V
	var e [2]VEdge
	for i := 0; i < 2; i++ {
		sum := VZero()
		for j := 0; j < 2; j++ {
			me := m.N.E[2*i+j]
			ve := v.N.E[j]
			sum = p.addV(sum, p.multMV(me, ve))
		}
		e[i] = sum
	}
	res := p.makeVNode(lv, e)
	p.mulMV.store(h, key, res, p.gen)
	return VEdge{W: res.W * m.W * v.W, N: res.N}
}

// multMM is the recursive body of MultMM.
func (p *Pkg) multMM(a, b MEdge) MEdge {
	if a.IsZero() || b.IsZero() {
		return MZero()
	}
	if a.N == mTerminal && b.N == mTerminal {
		return MEdge{W: a.W * b.W, N: mTerminal}
	}
	if a.N.V != b.N.V {
		panic("dd: MultMM operands have mismatched levels")
	}
	key := mulMMKey{a: a.N, b: b.N}
	h := hashMulMM(key)
	if res, ok := p.mulMM.lookup(h, key, p.gen); ok {
		return MEdge{W: res.W * a.W * b.W, N: res.N}
	}
	lv := a.N.V
	var e [4]MEdge
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			sum := MZero()
			for k := 0; k < 2; k++ {
				ae := a.N.E[2*i+k]
				be := b.N.E[2*k+j]
				sum = p.addM(sum, p.multMM(ae, be))
			}
			e[2*i+j] = sum
		}
	}
	res := p.makeMNode(lv, e)
	p.mulMM.store(h, key, res, p.gen)
	return MEdge{W: res.W * a.W * b.W, N: res.N}
}

// kronM is the body of KronM: as illustrated in Fig. 3 of the paper,
// the tensor product amounts to replacing the terminal of a's diagram
// with the root of b's diagram (relabelling a's nodes).
func (p *Pkg) kronM(a, b MEdge, lowerQubits int) MEdge {
	if a.IsZero() || b.IsZero() {
		return MZero()
	}
	key := kronKey{a: a.N, b: b.N}
	h := hashKron(key)
	if res, ok := p.kronCache.lookup(h, key, p.gen); ok {
		return MEdge{W: res.W * a.W * b.W, N: res.N}
	}
	res := p.kronRec(MEdge{W: 1, N: a.N}, b.N, lowerQubits)
	p.kronCache.store(h, key, res, p.gen)
	return MEdge{W: res.W * a.W * b.W, N: res.N}
}

func (p *Pkg) kronRec(a MEdge, b *MNode, shift int) MEdge {
	if a.IsZero() {
		return MZero()
	}
	if a.N == mTerminal {
		return MEdge{W: a.W, N: b}
	}
	var e [4]MEdge
	for i, c := range a.N.E {
		e[i] = p.kronRec(c, b, shift)
	}
	return scaleMRaw(a.W, p.makeMNode(a.N.V+shift, e))
}

// conjTranspose is the recursive body of ConjTranspose, used to
// invert circuits for the advanced equivalence-checking scheme.
func (p *Pkg) conjTranspose(m MEdge) MEdge {
	if m.IsZero() {
		return MZero()
	}
	if m.N == mTerminal {
		return MEdge{W: cmplx.Conj(m.W), N: mTerminal}
	}
	w := cmplx.Conj(m.W)
	h := m.N.hash
	if res, ok := p.conjCache.lookup(h, m.N, p.gen); ok {
		return MEdge{W: res.W * w, N: res.N}
	}
	var e [4]MEdge
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			// transpose swaps quadrants (i,j) -> (j,i)
			e[2*i+j] = p.conjTranspose(m.N.E[2*j+i])
		}
	}
	res := p.makeMNode(m.N.V, e)
	p.conjCache.store(h, m.N, res, p.gen)
	return MEdge{W: res.W * w, N: res.N}
}
