package dd

// Binary serialization of decision diagrams, the one exchange format:
// durable session snapshots (internal/snapshot), spill and ddconvert
// use it. The codec interns the stored canonical form verbatim: the
// encoder only ever sees weights that already live in a package's
// complex table, so the decoder can validate them against the
// canonical-form invariants and insert them bit-for-bit. Encoding a
// diagram, decoding it into a fresh package, and encoding it again
// yields identical bytes, which is what makes snapshot restore
// deterministic ("bit-identical root edges").
//
// Layout (all integers little-endian, uvarint = unsigned varint):
//
//	tag      byte    'V' (vector) or 'M' (matrix)
//	nqubits  uvarint
//	norm     byte    vector only: the NormScheme the weights obey
//	nodes    uvarint node count
//	node records, topologically sorted children-first; record i:
//	  level  uvarint
//	  per child (2 for vectors, 4 for matrices):
//	    re, im  float64 bits
//	    ref     uvarint  0 = terminal, k>0 = record k-1 (must be < i)
//	root record: re, im, ref as above
//
// The decoder is hardened against adversarial input: every structural
// invariant (levels, quasi-reduction, zero stubs, canonical weight
// form, bounded node counts) is checked and violations return errors
// — never panics — and the node budget installed with SetMaxNodes
// caps how much a decode may allocate before it aborts with an error
// matching ErrResourceExhausted.

import (
	"encoding/binary"
	"fmt"
	"math"
)

const (
	binVectorTag = 'V'
	binMatrixTag = 'M'

	// binAbsMaxNodes is the absolute decode ceiling, applied even when
	// no budget is configured: no legitimate snapshot in this system
	// approaches it, and it bounds the work a hostile length field can
	// demand.
	binAbsMaxNodes = 1 << 26

	// binCanonTol is the slack allowed when validating that stored
	// weights obey the canonical normalization. Canonical weights pass
	// through the complex table, whose tolerance-based unification can
	// move them a few ulps off the exact form; 1e-6 is far above that
	// drift and far below anything that would make probability reads
	// or identity checks lie.
	binCanonTol = 1e-6
)

func appendComplex(buf []byte, w complex128) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(real(w)))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(imag(w)))
}

// binReader is a bounds-checked cursor over the encoded blob. All
// reads report malformed input via the sticky err; callers check it
// at section boundaries.
type binReader struct {
	data []byte
	off  int
	err  error
}

func (r *binReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("dd: snapshot blob: "+format, args...)
	}
}

func (r *binReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.fail("truncated float at byte %d", r.off)
		return 0
	}
	bits := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return math.Float64frombits(bits)
}

func (r *binReader) complex() complex128 {
	re := r.float64()
	im := r.float64()
	return complex(re, im)
}

func finite(w complex128) bool {
	re, im := real(w), imag(w)
	return !math.IsNaN(re) && !math.IsInf(re, 0) && !math.IsNaN(im) && !math.IsInf(im, 0)
}

// AppendVectorBinary appends the binary encoding of the state diagram
// rooted at e to buf and returns the extended slice.
func (p *Pkg) AppendVectorBinary(buf []byte, e VEdge) []byte {
	p.checkOpen()
	buf = append(buf, binVectorTag)
	buf = binary.AppendUvarint(buf, uint64(p.nqubits))
	buf = append(buf, byte(p.vnorm))
	ids := map[*VNode]uint64{}
	var order []*VNode
	var visit func(n *VNode)
	visit = func(n *VNode) {
		if n == vTerminal {
			return
		}
		if _, ok := ids[n]; ok {
			return
		}
		visit(n.E[0].N)
		visit(n.E[1].N)
		ids[n] = uint64(len(order))
		order = append(order, n)
	}
	visit(e.N)
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	ref := func(n *VNode) uint64 {
		if n == vTerminal {
			return 0
		}
		return ids[n] + 1
	}
	for _, n := range order {
		buf = binary.AppendUvarint(buf, uint64(n.V))
		for _, c := range n.E {
			buf = appendComplex(buf, c.W)
			buf = binary.AppendUvarint(buf, ref(c.N))
		}
	}
	buf = appendComplex(buf, e.W)
	return binary.AppendUvarint(buf, ref(e.N))
}

// decodeBudget validates a claimed node count against the package's
// node budget and the absolute ceiling.
func (p *Pkg) decodeBudget(claimed uint64) error {
	if claimed > binAbsMaxNodes {
		return fmt.Errorf("dd: snapshot blob: claims %d nodes, ceiling is %d", claimed, binAbsMaxNodes)
	}
	if p.maxNodes > 0 && int(claimed) > p.maxNodes {
		return fmt.Errorf("dd: snapshot blob claims %d nodes: %w",
			claimed, &ResourceError{Nodes: p.live + int(claimed), Limit: p.maxNodes})
	}
	return nil
}

// internBudget enforces the budget for one interned node during a
// decode, sweeping the partially built (unreferenced) diagram on
// abort so the package stays usable.
func (p *Pkg) internBudget() error {
	if p.maxNodes > 0 && p.live >= p.maxNodes {
		err := p.exceeded()
		p.GarbageCollect()
		return fmt.Errorf("dd: snapshot decode aborted: %w", err)
	}
	return nil
}

// DecodeVectorBinary decodes a state diagram produced by
// AppendVectorBinary, interning the stored canonical nodes verbatim.
// The blob must be fully consumed; the decoder validates structure
// and canonical form and enforces the node budget (SetMaxNodes),
// returning an error matching ErrResourceExhausted when a decode
// would exceed it. The returned edge is unreferenced; callers that
// keep it across garbage collections must IncRefV it.
func (p *Pkg) DecodeVectorBinary(data []byte) (VEdge, error) {
	r := &binReader{data: data}
	if tag := r.byte(); r.err == nil && tag != binVectorTag {
		return VZero(), fmt.Errorf("dd: snapshot blob: not a vector diagram (tag %q)", tag)
	}
	nq := r.uvarint()
	norm := r.byte()
	count := r.uvarint()
	if r.err != nil {
		return VZero(), r.err
	}
	if int(nq) != p.nqubits {
		return VZero(), fmt.Errorf("dd: snapshot has %d qubits, package has %d", nq, p.nqubits)
	}
	if NormScheme(norm) != p.vnorm {
		return VZero(), fmt.Errorf("dd: snapshot normalization scheme %d, package uses %d", norm, p.vnorm)
	}
	if err := p.decodeBudget(count); err != nil {
		return VZero(), err
	}
	// Each node record needs at least 1 + 2*(16+1) bytes, so a hostile
	// count field cannot demand a large allocation from a short blob.
	if int(count) > len(data)/35+1 {
		return VZero(), fmt.Errorf("dd: snapshot blob: node count %d exceeds what %d bytes can hold", count, len(data))
	}
	nodes := make([]*VNode, 0, count)
	for i := uint64(0); i < count; i++ {
		lvl := r.uvarint()
		var kids [2]VEdge
		for c := 0; c < 2; c++ {
			w := r.complex()
			ref := r.uvarint()
			if r.err != nil {
				return VZero(), r.err
			}
			kid, err := p.resolveVChild(nodes, int64(lvl), w, ref, i)
			if err != nil {
				return VZero(), err
			}
			kids[c] = kid
		}
		if r.err != nil {
			return VZero(), r.err
		}
		if lvl >= uint64(p.nqubits) {
			return VZero(), fmt.Errorf("dd: snapshot blob: node %d level %d out of range", i, lvl)
		}
		if err := validateVNorm(p.vnorm, kids[0].W, kids[1].W); err != nil {
			return VZero(), fmt.Errorf("dd: snapshot blob: node %d: %w", i, err)
		}
		n, err := p.internVNode(int(lvl), kids)
		if err != nil {
			return VZero(), err
		}
		nodes = append(nodes, n)
	}
	w := r.complex()
	ref := r.uvarint()
	if r.err != nil {
		return VZero(), r.err
	}
	if r.off != len(data) {
		return VZero(), fmt.Errorf("dd: snapshot blob: %d trailing bytes", len(data)-r.off)
	}
	if !finite(w) {
		return VZero(), fmt.Errorf("dd: snapshot blob: non-finite root weight")
	}
	if ref == 0 {
		if w != 0 {
			return VZero(), fmt.Errorf("dd: snapshot blob: terminal vector root with non-zero weight")
		}
		return VZero(), nil
	}
	if ref > uint64(len(nodes)) {
		return VZero(), fmt.Errorf("dd: snapshot blob: root references undefined node %d", ref-1)
	}
	root := nodes[ref-1]
	if root.V != p.nqubits-1 {
		return VZero(), fmt.Errorf("dd: snapshot blob: root node at level %d, want %d", root.V, p.nqubits-1)
	}
	if w == 0 {
		return VZero(), fmt.Errorf("dd: snapshot blob: zero root weight on a non-terminal root")
	}
	return p.rootV(VEdge{W: w, N: root}), nil
}

// resolveVChild validates and resolves one child reference of a
// vector node record at level lvl.
func (p *Pkg) resolveVChild(nodes []*VNode, lvl int64, w complex128, ref, rec uint64) (VEdge, error) {
	if !finite(w) {
		return VEdge{}, fmt.Errorf("dd: snapshot blob: node %d: non-finite weight", rec)
	}
	if w == 0 {
		// Canonical zero stub: weight 0 always points at the terminal.
		if ref != 0 {
			return VEdge{}, fmt.Errorf("dd: snapshot blob: node %d: zero weight with non-terminal child", rec)
		}
		return VEdge{W: 0, N: vTerminal}, nil
	}
	if ref == 0 {
		if lvl != 0 {
			return VEdge{}, fmt.Errorf("dd: snapshot blob: node %d: terminal child below level %d violates quasi-reduction", rec, lvl)
		}
		return VEdge{W: p.cn.Lookup(w), N: vTerminal}, nil
	}
	if ref > rec || ref > uint64(len(nodes)) {
		return VEdge{}, fmt.Errorf("dd: snapshot blob: node %d: forward child reference %d", rec, ref-1)
	}
	child := nodes[ref-1]
	if int64(child.V) != lvl-1 {
		return VEdge{}, fmt.Errorf("dd: snapshot blob: node %d: child at level %d under level %d violates quasi-reduction", rec, child.V, lvl)
	}
	if w = p.cn.Lookup(w); w == 0 {
		return VEdge{}, fmt.Errorf("dd: snapshot blob: node %d: weight within tolerance of zero on a non-terminal child", rec)
	}
	return VEdge{W: w, N: child}, nil
}

// validateVNorm checks the canonical-form invariants of a vector
// node's weight pair under the given normalization scheme.
func validateVNorm(scheme NormScheme, w0, w1 complex128) error {
	m0 := real(w0)*real(w0) + imag(w0)*imag(w0)
	m1 := real(w1)*real(w1) + imag(w1)*imag(w1)
	if m0+m1 == 0 {
		return fmt.Errorf("all-zero node (must be a zero stub)")
	}
	switch scheme {
	case NormL2:
		if math.Abs(m0+m1-1) > binCanonTol {
			return fmt.Errorf("weights not L2-normalized (|w0|²+|w1|² = %g)", m0+m1)
		}
		first := w0
		if w0 == 0 {
			first = w1
		}
		if math.Abs(imag(first)) > binCanonTol || real(first) < -binCanonTol {
			return fmt.Errorf("leading weight %v not real non-negative", first)
		}
	default: // NormMax
		top := math.Max(m0, m1)
		if math.Abs(top-1) > binCanonTol {
			return fmt.Errorf("weights not max-normalized (max magnitude² = %g)", top)
		}
	}
	return nil
}

// internVNode inserts a validated canonical vector node verbatim,
// sharing an existing identical node when present.
func (p *Pkg) internVNode(v int, e [2]VEdge) (*VNode, error) {
	h := hashVNode(e[0].W, e[1].W, e[0].N, e[1].N)
	tab := &p.vUnique[v]
	if n := tab.lookup(h, e[0].W, e[1].W, e[0].N, e[1].N, &p.stats); n != nil {
		p.stats.UniqueHitsV++
		return n, nil
	}
	if err := p.internBudget(); err != nil {
		return nil, err
	}
	n, recycled := p.vMem.alloc()
	n.V = v
	n.hash = h
	n.E = e
	tab.insert(n)
	p.live++
	p.stats.NodesCreatedV++
	if recycled {
		p.stats.NodesRecycledV++
	}
	return n, nil
}

// AppendMatrixBinary appends the binary encoding of the operation
// diagram rooted at e to buf and returns the extended slice.
func (p *Pkg) AppendMatrixBinary(buf []byte, e MEdge) []byte {
	p.checkOpen()
	buf = append(buf, binMatrixTag)
	buf = binary.AppendUvarint(buf, uint64(p.nqubits))
	ids := map[*MNode]uint64{}
	var order []*MNode
	var visit func(n *MNode)
	visit = func(n *MNode) {
		if n == mTerminal {
			return
		}
		if _, ok := ids[n]; ok {
			return
		}
		for _, c := range n.E {
			visit(c.N)
		}
		ids[n] = uint64(len(order))
		order = append(order, n)
	}
	visit(e.N)
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	ref := func(n *MNode) uint64 {
		if n == mTerminal {
			return 0
		}
		return ids[n] + 1
	}
	for _, n := range order {
		buf = binary.AppendUvarint(buf, uint64(n.V))
		for _, c := range n.E {
			buf = appendComplex(buf, c.W)
			buf = binary.AppendUvarint(buf, ref(c.N))
		}
	}
	buf = appendComplex(buf, e.W)
	return binary.AppendUvarint(buf, ref(e.N))
}

// DecodeMatrixBinary decodes an operation diagram produced by
// AppendMatrixBinary; the contract mirrors DecodeVectorBinary.
func (p *Pkg) DecodeMatrixBinary(data []byte) (MEdge, error) {
	r := &binReader{data: data}
	if tag := r.byte(); r.err == nil && tag != binMatrixTag {
		return MZero(), fmt.Errorf("dd: snapshot blob: not a matrix diagram (tag %q)", tag)
	}
	nq := r.uvarint()
	count := r.uvarint()
	if r.err != nil {
		return MZero(), r.err
	}
	if int(nq) != p.nqubits {
		return MZero(), fmt.Errorf("dd: snapshot has %d qubits, package has %d", nq, p.nqubits)
	}
	if err := p.decodeBudget(count); err != nil {
		return MZero(), err
	}
	// Minimum matrix record size: 1 + 4*(16+1) bytes.
	if int(count) > len(data)/69+1 {
		return MZero(), fmt.Errorf("dd: snapshot blob: node count %d exceeds what %d bytes can hold", count, len(data))
	}
	nodes := make([]*MNode, 0, count)
	for i := uint64(0); i < count; i++ {
		lvl := r.uvarint()
		var kids [4]MEdge
		for c := 0; c < 4; c++ {
			w := r.complex()
			ref := r.uvarint()
			if r.err != nil {
				return MZero(), r.err
			}
			kid, err := p.resolveMChild(nodes, int64(lvl), w, ref, i)
			if err != nil {
				return MZero(), err
			}
			kids[c] = kid
		}
		if r.err != nil {
			return MZero(), r.err
		}
		if lvl >= uint64(p.nqubits) {
			return MZero(), fmt.Errorf("dd: snapshot blob: node %d level %d out of range", i, lvl)
		}
		if err := validateMNorm(&kids); err != nil {
			return MZero(), fmt.Errorf("dd: snapshot blob: node %d: %w", i, err)
		}
		n, err := p.internMNode(int(lvl), kids)
		if err != nil {
			return MZero(), err
		}
		nodes = append(nodes, n)
	}
	w := r.complex()
	ref := r.uvarint()
	if r.err != nil {
		return MZero(), r.err
	}
	if r.off != len(data) {
		return MZero(), fmt.Errorf("dd: snapshot blob: %d trailing bytes", len(data)-r.off)
	}
	if !finite(w) {
		return MZero(), fmt.Errorf("dd: snapshot blob: non-finite root weight")
	}
	if ref == 0 {
		if w != 0 {
			return MZero(), fmt.Errorf("dd: snapshot blob: terminal matrix root with non-zero weight")
		}
		return MZero(), nil
	}
	if ref > uint64(len(nodes)) {
		return MZero(), fmt.Errorf("dd: snapshot blob: root references undefined node %d", ref-1)
	}
	root := nodes[ref-1]
	if root.V != p.nqubits-1 {
		return MZero(), fmt.Errorf("dd: snapshot blob: root node at level %d, want %d", root.V, p.nqubits-1)
	}
	if w == 0 {
		return MZero(), fmt.Errorf("dd: snapshot blob: zero root weight on a non-terminal root")
	}
	return p.rootM(MEdge{W: w, N: root}), nil
}

func (p *Pkg) resolveMChild(nodes []*MNode, lvl int64, w complex128, ref, rec uint64) (MEdge, error) {
	if !finite(w) {
		return MEdge{}, fmt.Errorf("dd: snapshot blob: node %d: non-finite weight", rec)
	}
	if w == 0 {
		if ref != 0 {
			return MEdge{}, fmt.Errorf("dd: snapshot blob: node %d: zero weight with non-terminal child", rec)
		}
		return MEdge{W: 0, N: mTerminal}, nil
	}
	if ref == 0 {
		if lvl != 0 {
			return MEdge{}, fmt.Errorf("dd: snapshot blob: node %d: terminal child below level %d violates quasi-reduction", rec, lvl)
		}
		return MEdge{W: p.cn.Lookup(w), N: mTerminal}, nil
	}
	if ref > rec || ref > uint64(len(nodes)) {
		return MEdge{}, fmt.Errorf("dd: snapshot blob: node %d: forward child reference %d", rec, ref-1)
	}
	child := nodes[ref-1]
	if int64(child.V) != lvl-1 {
		return MEdge{}, fmt.Errorf("dd: snapshot blob: node %d: child at level %d under level %d violates quasi-reduction", rec, child.V, lvl)
	}
	if w = p.cn.Lookup(w); w == 0 {
		return MEdge{}, fmt.Errorf("dd: snapshot blob: node %d: weight within tolerance of zero on a non-terminal child", rec)
	}
	return MEdge{W: w, N: child}, nil
}

// validateMNorm checks the QMDD canonical form of a matrix node: the
// dominant entry is (numerically) one and nothing exceeds it.
func validateMNorm(e *[4]MEdge) error {
	anyNonZero := false
	hasUnit := false
	for _, c := range e {
		m := real(c.W)*real(c.W) + imag(c.W)*imag(c.W)
		if m > 0 {
			anyNonZero = true
		}
		if m > 1+binCanonTol {
			return fmt.Errorf("weight %v exceeds the normalization entry", c.W)
		}
		if math.Abs(real(c.W)-1) <= binCanonTol && math.Abs(imag(c.W)) <= binCanonTol {
			hasUnit = true
		}
	}
	if !anyNonZero {
		return fmt.Errorf("all-zero node (must be a zero stub)")
	}
	if !hasUnit {
		return fmt.Errorf("no unit normalization entry")
	}
	return nil
}

func (p *Pkg) internMNode(v int, e [4]MEdge) (*MNode, error) {
	var w [4]complex128
	var n [4]*MNode
	for i, c := range e {
		w[i] = c.W
		n[i] = c.N
	}
	h := hashMNode(&w, &n)
	tab := &p.mUnique[v]
	if nd := tab.lookup(h, &w, &n, &p.stats); nd != nil {
		p.stats.UniqueHitsM++
		return nd, nil
	}
	if err := p.internBudget(); err != nil {
		return nil, err
	}
	nd, recycled := p.mMem.alloc()
	nd.V = v
	nd.hash = h
	nd.E = e
	tab.insert(nd)
	p.live++
	p.stats.NodesCreatedM++
	if recycled {
		p.stats.NodesRecycledM++
	}
	return nd, nil
}
