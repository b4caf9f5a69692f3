package dd

// Operation observation and race-clean stats snapshots.
//
// A Pkg is single-goroutine by design, but production deployments
// need to watch it from other goroutines: a metrics scraper must read
// table loads and cache ratios while a session is mid-step. Two
// mechanisms make that possible without locking the hot path:
//
//   - One optional Observer per package sees the wall-clock latency of
//     every top-level diagram operation (the public AddV/MultMV/…
//     entry points time themselves around their recursive bodies) and
//     every garbage collection. Callers that feed several sinks compose
//     them in one Observer value of their own. With no observer
//     installed the cost is two nil checks per operation (opStart,
//     traced).
//
//   - The package periodically publishes an immutable Stats snapshot
//     through an atomic pointer (LastStats). Readers on any goroutine
//     get a consistent recent snapshot; they never observe a
//     half-updated Stats struct racing with a GC sweep.

import (
	"sync/atomic"
	"time"
)

// Op identifies a traced top-level diagram operation.
type Op uint8

const (
	OpAddV Op = iota
	OpAddM
	OpMultMV
	OpMultMM
	OpKron
	OpConjTranspose
	OpApplyGate
	OpApplyGateM
	OpGC
	// NumOps bounds Op values for table-indexed collectors.
	NumOps
)

// String returns the stable label used in metric series.
func (o Op) String() string {
	switch o {
	case OpAddV:
		return "addv"
	case OpAddM:
		return "addm"
	case OpMultMV:
		return "multmv"
	case OpMultMM:
		return "multmm"
	case OpKron:
		return "kron"
	case OpConjTranspose:
		return "conjt"
	case OpApplyGate:
		return "applygate"
	case OpApplyGateM:
		return "applygatem"
	case OpGC:
		return "gc"
	default:
		return "unknown"
	}
}

// Observer watches the operations of a package. ObserveOp runs on
// the goroutine that completed the operation; implementations shared
// by several packages must be safe for concurrent use.
type Observer interface {
	ObserveOp(op Op, d time.Duration)
}

var defaultObserver atomic.Pointer[Observer]

// SetDefaultObserver installs a process-wide observer inherited by
// every subsequently created Pkg — how the CLI tools observe packages
// built deep inside the bench and verify harnesses. Pass nil to clear.
func SetDefaultObserver(o Observer) { defaultObserver.Store(&o) }

// SetObserver installs (or, with nil, removes) the observer of this
// package, overriding any default it inherited. Installing an
// observer publishes an initial stats snapshot.
func (p *Pkg) SetObserver(o Observer) {
	p.observer = o
	if o != nil {
		p.PublishStats()
	}
}

// publishStride bounds how often traced operations refresh the
// published snapshot; a snapshot allocates one Stats struct, so the
// stride keeps tight operation loops allocation-light while scrapes
// still observe values at most a few dozen operations old.
const publishStride = 32

// PublishStats takes a Stats snapshot and publishes it for
// cross-goroutine readers (LastStats).
func (p *Pkg) PublishStats() {
	s := p.Stats()
	p.statsSnap.Store(&s)
}

// LastStats returns the most recently published stats snapshot. It is
// safe to call from any goroutine, unlike every other Pkg method: the
// snapshot is immutable and read through an atomic pointer. The
// second result is false when no snapshot was published yet.
func (p *Pkg) LastStats() (Stats, bool) {
	if s := p.statsSnap.Load(); s != nil {
		return *s, true
	}
	return Stats{}, false
}

// opStart returns the start time of a top-level operation, or the zero
// time when no observer will see it.
func (p *Pkg) opStart() time.Time {
	if p.observer == nil {
		return time.Time{}
	}
	return time.Now()
}

// traced runs after a top-level operation completed: with an observer
// installed it reports the latency and periodically republishes the
// stats snapshot.
func (p *Pkg) traced(op Op, start time.Time) {
	if p.observer == nil {
		return
	}
	p.observer.ObserveOp(op, time.Since(start))
	p.tracedOps++
	if p.tracedOps%publishStride == 0 {
		p.PublishStats()
	}
}

// AddV returns the element-wise sum of the vectors a and b. Operands
// must stem from this package and represent equally sized vectors.
func (p *Pkg) AddV(a, b VEdge) VEdge {
	notSwept(a.N.V)
	notSwept(b.N.V)
	start := p.opStart()
	res := p.rootV(p.addV(a, b))
	p.traced(OpAddV, start)
	return res
}

// AddM returns the element-wise sum of the matrices a and b.
func (p *Pkg) AddM(a, b MEdge) MEdge {
	notSwept(a.N.V)
	notSwept(b.N.V)
	start := p.opStart()
	res := p.rootM(p.addM(a, b))
	p.traced(OpAddM, start)
	return res
}

// MultMV computes the matrix-vector product m·v, the core of DD-based
// simulation (Ex. 9, Fig. 4 of the paper).
func (p *Pkg) MultMV(m MEdge, v VEdge) VEdge {
	notSwept(m.N.V)
	notSwept(v.N.V)
	start := p.opStart()
	res := p.rootV(p.multMV(m, v))
	p.traced(OpMultMV, start)
	return res
}

// MultMM computes the matrix-matrix product a·b (a applied after b),
// used to build circuit functionality U = U_{m-1}···U_0. MultMMOps is
// counted once the product has returned, so a product aborted by the
// node budget counts nothing and one MultMMChecked re-runs counts once.
func (p *Pkg) MultMM(a, b MEdge) MEdge {
	notSwept(a.N.V)
	notSwept(b.N.V)
	start := p.opStart()
	res := p.rootM(p.multMM(a, b))
	p.stats.MultMMOps++
	p.traced(OpMultMM, start)
	return res
}

// KronM computes the tensor product a⊗b, where b spans the
// lowerQubits bottom levels (Fig. 3 of the paper).
func (p *Pkg) KronM(a, b MEdge, lowerQubits int) MEdge {
	start := p.opStart()
	res := p.rootM(p.kronM(a, b, lowerQubits))
	p.traced(OpKron, start)
	return res
}

// ConjTranspose returns the conjugate transpose (adjoint) m† of the
// matrix diagram.
func (p *Pkg) ConjTranspose(m MEdge) MEdge {
	start := p.opStart()
	res := p.rootM(p.conjTranspose(m))
	p.traced(OpConjTranspose, start)
	return res
}
