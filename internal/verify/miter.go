package verify

import (
	"fmt"

	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
)

// Side names one circuit of a miter: Left is G, whose gates multiply
// into the product from the left; Right is G′, whose gates are
// inverted and multiply in from the right.
type Side int

const (
	Left Side = iota
	Right
)

// Miter is the running product G·G′⁻¹ of the alternating scheme. It
// starts at the identity; each step multiplies in the next gate of G
// from the left or the inverse of the next gate of G′ from the right,
// so once both circuits are consumed the product is the identity (up
// to a global phase) exactly when G ≡ G′. The alternating strategies
// schedule its steps and the web verification tab steps it by hand;
// spans, trace records and undo history stay with them.
//
// A position is an op index of its circuit with barriers counted, the
// form a spill snapshot of the tab stores. The miter holds a reference
// on its product. Each step leaves the previous product and its
// intermediates as garbage, so Take collects on a dd.GCWatermark: a
// diagram on the package that the caller has not referenced may be
// swept by any Take or Step.
type Miter struct {
	p    *dd.Pkg
	c    [2]*qc.Circuit
	pos  [2]int
	x    dd.MEdge
	size int // nodes of x
	peak int // largest size the product has reached
	gc   dd.GCWatermark
}

// checkPair is the one test of a pair to be checked: equal register
// widths and unitary operations only.
func checkPair(g, g2 *qc.Circuit) error {
	if g.NQubits != g2.NQubits {
		return fmt.Errorf("verify: qubit counts differ (%d vs %d); ancillary registers are not supported", g.NQubits, g2.NQubits)
	}
	if g.HasNonUnitary() || g2.HasNonUnitary() {
		return fmt.Errorf("verify: measurements, resets and classically-controlled operations are not supported in verification")
	}
	return nil
}

// NewMiter starts the miter of G and G′ at the identity on p, which
// must be at least as wide as the circuits. The pair must pass the
// checker's own test: equal widths and unitary operations only.
func NewMiter(p *dd.Pkg, g, g2 *qc.Circuit) (*Miter, error) {
	if err := checkPair(g, g2); err != nil {
		return nil, err
	}
	return newMiter(p, g, g2), nil
}

func newMiter(p *dd.Pkg, g, g2 *qc.Circuit) *Miter {
	m := &Miter{p: p, c: [2]*qc.Circuit{g, g2}, x: p.Ident()}
	p.IncRefM(m.x)
	m.size = dd.SizeM(m.x)
	m.peak = m.size
	return m
}

// Pkg returns the package the product lives on.
func (m *Miter) Pkg() *dd.Pkg { return m.p }

// Circuit returns the circuit of side s.
func (m *Miter) Circuit(s Side) *qc.Circuit { return m.c[s] }

// X returns the product, referenced by the miter.
func (m *Miter) X() dd.MEdge { return m.x }

// Pos returns the op positions of G and G′.
func (m *Miter) Pos() (li, ri int) { return m.pos[Left], m.pos[Right] }

// Size returns the node count of the product, kept from the walk that
// measured it last, so reading it walks nothing.
func (m *Miter) Size() int { return m.size }

// Peak returns the largest size the product has reached.
func (m *Miter) Peak() int { return m.peak }

// Next moves side s past the barriers ahead of it and returns its next
// gate, or nil once the side is consumed.
func (m *Miter) Next(s Side) *qc.Op {
	ops := m.c[s].Ops
	for m.pos[s] < len(ops) && ops[m.pos[s]].Kind == qc.KindBarrier {
		m.pos[s]++
	}
	if m.pos[s] >= len(ops) {
		return nil
	}
	return &ops[m.pos[s]]
}

// Try multiplies the next gate of side s into the product under p's
// node budget: a gate of G from the left (U·X), a gate of G′ inverted
// from the right (X·U′⁻¹). It returns the new product referenced and
// changes nothing else; Take commits it, DecRefM drops it. Side s must
// have a next gate.
func (m *Miter) Try(s Side) (dd.MEdge, error) {
	op := m.Next(s)
	var next dd.MEdge
	var err error
	if s == Left {
		next, err = m.p.ApplyOpML(m.x, op)
	} else {
		inv := op.Inverse()
		next, err = m.p.ApplyOpMR(m.x, &inv)
	}
	if err == nil {
		m.p.IncRefM(next)
	}
	return next, err
}

// Take makes next, which Try returned for side s, the product: the
// miter drops its reference on the previous one, collects if the live
// nodes have passed its watermark, moves side s past the gate and
// returns the new product's size.
func (m *Miter) Take(s Side, next dd.MEdge) int {
	m.p.DecRefM(m.x)
	m.x = next
	m.gc.MaybeCollect(m.p)
	m.pos[s]++
	m.size = dd.SizeM(next)
	m.peak = max(m.peak, m.size)
	m.p.MaybeShapeM(next)
	return m.size
}

// Step is Try then Take: it applies the next gate of side s and returns
// the new product's size. After an error the miter is as it was.
func (m *Miter) Step(s Side) (int, error) {
	next, err := m.Try(s)
	if err != nil {
		return 0, err
	}
	return m.Take(s, next), nil
}

// RunToBarrier applies the gates of side s up to its next barrier or
// its end, each by one call of step, which applies the side's next gate
// as Step does along with whatever the caller keeps of it. This is the
// ⏭ of the verification tab, which Ex. 12 uses to consume "all gates
// from the circuit up to the next barrier". Barriers ahead of the first
// gate are skipped; the one that ends the run is left for the next.
func (m *Miter) RunToBarrier(s Side, step func() error) (applied int, err error) {
	ops := m.c[s].Ops
	for m.pos[s] < len(ops) {
		if ops[m.pos[s]].Kind == qc.KindBarrier {
			if applied > 0 {
				break
			}
			m.pos[s]++
			continue
		}
		if err := step(); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}

// Restore makes x, of size nodes, the product at op positions li and
// ri, for undo and for resuming a spilled session; the peak keeps the
// larger of its value and size. The caller hands its reference on x to
// the miter, which drops the one on its previous product.
func (m *Miter) Restore(x dd.MEdge, li, ri, size int) {
	m.p.DecRefM(m.x)
	m.x, m.pos, m.size = x, [2]int{li, ri}, size
	m.peak = max(m.peak, size)
}

// Identity classifies the product against the identity, the verdict
// once both circuits are consumed.
func (m *Miter) Identity() dd.IdentityKind { return m.p.CheckIdentity(m.x) }
