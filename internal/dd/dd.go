// Package dd implements decision diagrams for quantum computing as
// described in Sec. III of "Visualizing Decision Diagrams for Quantum
// Computing" (Wille, Burgholzer, Artner; DATE 2021) and the underlying
// package literature (Niemann et al., TCAD 2016; Zulehner et al.,
// ICCAD 2019; Hillmich et al., DAC 2020).
//
// Two diagram kinds exist. A vector DD represents a 2^n state vector:
// each node is labelled with a qubit and has two successors, splitting
// the vector into the halves where that qubit is |0⟩ or |1⟩. A matrix
// DD represents a 2^n×2^n operation matrix: each node has four
// successors U00, U01, U10, U11, splitting the matrix into quadrants
// (the successor Uij describes the action on the rest of the system
// given that the node's qubit maps |j⟩ to |i⟩).
//
// Equal sub-vectors/sub-matrices are shared via per-level unique
// tables, and sub-structures differing only by a common factor are
// unified by pulling the factor out into a complex edge weight,
// normalizing each node to a canonical form. Together with canonical
// complex values (package cnum), this makes diagrams canonical: two
// states (or operations) are equal exactly when their root edges are
// identical, which is what makes DD-based equivalence checking a
// pointer comparison.
//
// A weight goes through the complex table only where canonical bits
// are needed: the child weights a node stores (makeVNode/makeMNode),
// the weight ratios that key the addition and projector-merge compute
// tables, the entries of an interned gate, and the root edge an
// exported operation returns. Everything in between stays a raw
// complex128: the top weight a new node hands back, the results the
// recursions return and their terminal sums. A child weight within the
// tolerance of zero becomes a zero stub when its node is made, and a
// returned root whose weight canonicalizes to zero is the zero edge.
//
// All diagrams are "quasi-reduced": every path from the root to the
// terminal visits every level, except that all-zero sub-structures are
// collapsed into zero stubs (a weight-0 edge to the terminal). This is
// the convention of the paper's figures.
//
// Diagrams are created through a Pkg, which owns the unique tables,
// the complex table, and the operation caches. A Pkg is not safe for
// concurrent use.
//
// Ownership. A diagram stays alive while its root is referenced
// (IncRefV/IncRefM); garbage collection sweeps every unreferenced
// node. The package's own operations return unreferenced edges, and a
// caller that keeps one across a collection references it. A root
// handed to a caller as the finished result of a build that collects
// (verify.CheckOn's Result.Root) comes back referenced, and the caller
// releases it with DecRefV/DecRefM. Close ends the package and every
// root on it, referenced or not.
//
// Circuits. Besides its number and memory helpers (cnum, pool), dd
// imports the leaf package qc, which imports only the standard
// library: Control is qc.Control, and ApplyOp/ApplyOpML/ApplyOpMR
// (op.go) are the one entry from a circuit op to the gate kernels.
package dd

import (
	"fmt"
	"math"
	"sync/atomic"

	"quantumdd/internal/cnum"
	"quantumdd/internal/pool"
)

// Var identifies a qubit level inside a diagram. Level 0 is the
// bottom-most (least-significant qubit q0, matching the big-endian
// |q_{n-1}…q_0⟩ convention of the paper).
type Var = int

// terminalVar labels the shared terminal node; it compares below every
// real level.
const terminalVar Var = -1

// VNode is a vector decision-diagram node. Nodes are immutable after
// construction and unique within a Pkg: structural equality implies
// pointer equality. Nodes live in slab-allocated arenas (mem.go) and
// are chained into the bucketed unique tables (unique.go) through the
// intrusive next pointer, which doubles as the free-list link after a
// node is swept.
type VNode struct {
	E    [2]VEdge // successors: E[0] = qubit |0⟩ branch, E[1] = |1⟩ branch
	next *VNode   // unique-table chain / free-list link
	hash uint64   // unique-table hash of the normalized contents
	V    Var      // qubit level
	ref  int      // reference count for garbage collection
}

// MNode is a matrix decision-diagram node with the four quadrant
// successors in row-major order: E[2i+j] describes the action given
// the node's qubit maps |j⟩ to |i⟩.
type MNode struct {
	E    [4]MEdge
	next *MNode
	hash uint64
	V    Var
	ref  int
}

// Shared immutable terminal nodes. Their edge arrays are never read;
// the hash seeds give terminal children a mixed contribution to their
// parents' hashes.
var (
	vTerminal = &VNode{V: terminalVar, hash: vTerminalHash}
	mTerminal = &MNode{V: terminalVar, hash: mTerminalHash}
)

// VEdge is a weighted edge to a vector node. The zero value is not
// meaningful; use Pkg methods or VZero/VOne helpers.
type VEdge struct {
	W complex128 // canonical in stored children and returned roots
	N *VNode
}

// MEdge is a weighted edge to a matrix node.
type MEdge struct {
	W complex128
	N *MNode
}

// IsTerminal reports whether the edge points at the terminal node.
func (e VEdge) IsTerminal() bool { return e.N == vTerminal }

// IsZero reports whether the edge denotes the all-zero vector.
func (e VEdge) IsZero() bool { return e.N == vTerminal && e.W == 0 }

// IsTerminal reports whether the edge points at the terminal node.
func (e MEdge) IsTerminal() bool { return e.N == mTerminal }

// IsZero reports whether the edge denotes the all-zero matrix.
func (e MEdge) IsZero() bool { return e.N == mTerminal && e.W == 0 }

// Level returns the level the edge operates on: the node's level, or
// terminalVar for terminal edges.
func (e VEdge) Level() Var { return e.N.V }

// Level returns the level the edge operates on.
func (e MEdge) Level() Var { return e.N.V }

// Pkg owns all tables needed to build and manipulate decision
// diagrams over a fixed number of qubits.
type Pkg struct {
	nqubits int
	cn      *cnum.Table

	// vnorm selects the vector normalization scheme; see NormScheme.
	vnorm NormScheme

	// Per-level bucketed unique tables (unique.go) and the slab
	// arenas feeding them (mem.go).
	vUnique []vTable
	mUnique []mTable
	vMem    vArena
	mMem    mArena

	// Operation caches: fixed-size direct-mapped lossy tables
	// (compute.go), listed with their IDs and capacity classes by
	// tables. Entries are invalidated wholesale on garbage collection
	// by bumping gen; see gc.go.
	gen        uint64
	addVCache  computeTable[addVKey, VEdge]
	addMCache  computeTable[addMKey, MEdge]
	mulMV      computeTable[mulMVKey, VEdge]
	mulMM      computeTable[mulMMKey, MEdge]
	kronCache  computeTable[kronKey, MEdge]
	conjCache  computeTable[*MNode, MEdge]
	fidCache   computeTable[fidKey, complex128]
	applyCache computeTable[applyVKey, VEdge]
	applySplit computeTable[applyVKey, vPair]

	// Matrix-apply kernel tables (applygatem.go), indexed by side:
	// gate products, control-split decompositions and projector
	// merges.
	applyMCache [2]computeTable[applyMKey, MEdge]
	applyMSplit [2]computeTable[applyMKey, mPair]
	applyMMerge [2]computeTable[mergeMKey, MEdge]

	// Interned gate applications (applygate.go): canonical
	// (matrix, target, controls) triples resolve to stable pointers
	// that key the apply tables and carry the per-generation gate-DD
	// cache.
	gateIntern map[gateSig]*appliedGate

	// Identity fast path of the matrix kernel (applygatem.go): the
	// canonical per-level identity node chain, rebuilt at most once per
	// generation.
	identNodes []*MNode
	identGen   uint64

	// closed marks a package whose memory went back to the pools
	// (Close); every later operation panics.
	closed bool

	// Counters outside the compute tables, which count for
	// themselves; Stats merges both.
	stats Stats

	// Node budget (see budget.go): maxNodes caps the live unique-table
	// size, live tracks it incrementally, and budgetArmed marks that a
	// *Checked operation is in flight and may be aborted.
	maxNodes    int
	live        int
	budgetArmed bool

	// Observability (see trace.go): observer sees top-level
	// operation latencies, tracedOps strides snapshot publication,
	// and statsSnap is the atomically published Stats snapshot that
	// other goroutines read via LastStats.
	observer  Observer
	tracedOps uint64
	statsSnap atomic.Pointer[Stats]

	// Shape profiling (see shape.go): shapeEvery strides MaybeShapeV/M
	// sampling, shapeTick counts calls since the last profile, shapeSeq
	// numbers published profiles, and shapeSnap is the atomically
	// published latest profile other goroutines read via LastShape.
	shapeEvery int
	shapeTick  int
	shapeSeq   uint64
	shapeSnap  atomic.Pointer[ShapeProfile]
}

// Stats aggregates package counters, exposed for the benchmark
// harness, the web statistics panel, and the ablation experiments.
type Stats struct {
	NodesCreatedV uint64 // vector unique-table misses
	NodesCreatedM uint64 // matrix unique-table misses
	UniqueHitsV   uint64
	UniqueHitsM   uint64
	CacheLookups  uint64 // compute-table lookups, all tables
	CacheHits     uint64 // compute-table hits, all tables
	GCRuns        uint64
	NodesFreed    uint64
	GCPauseNS     uint64 // cumulative wall-clock nanoseconds spent in GarbageCollect

	// Table & memory-manager counters (see unique.go, compute.go,
	// mem.go).
	NodesRecycledV uint64 // allocations served from the vector free list
	NodesRecycledM uint64 // allocations served from the matrix free list
	UTCollisions   uint64 // unique-table chain entries probed past the head
	CTStores       uint64 // compute-table stores
	CTEvictions    uint64 // stores that displaced a live entry

	// Gate-application kernel counters (applygate.go). The ApplyCT*
	// fields sum the apply_v and split_v tables.
	ApplyCTLookups   uint64 // apply/split compute-table lookups
	ApplyCTHits      uint64 // apply/split compute-table hits
	ApplyCTEvictions uint64 // apply/split stores displacing a live entry
	GatesFused       uint64 // always 0 since fusion was removed
	GateDDCacheHits  uint64 // MakeGateDD calls served from the gate-DD cache

	// Matrix-apply kernel counters (applygatem.go). The ApplyMCT*
	// fields sum the apply_m, split_m and merge_m tables. Verification
	// applies every gate through the kernel (ApplyMOps); MultMMOps
	// counts direct MultMM calls.
	ApplyMCTLookups     uint64 // matrix apply/split compute-table lookups
	ApplyMCTHits        uint64 // matrix apply/split compute-table hits
	ApplyMCTEvictions   uint64 // matrix apply/split stores displacing a live entry
	ApplyMIdentitySkips uint64 // identity sub-blocks short-circuited by the descent
	ApplyMOps           uint64 // completed top-level ApplyGateML/MR applications
	MultMMOps           uint64 // top-level generic MultMM invocations

	// Snapshot-time gauges, filled by Stats().
	UniqueLoadV float64 // vector unique-table load factor (entries/buckets)
	UniqueLoadM float64 // matrix unique-table load factor
	FreeNodesV  int     // vector nodes parked on the free list
	FreeNodesM  int     // matrix nodes parked on the free list
	LiveNodes   int     // nodes currently in the unique tables

	// ComplexValues is the number of canonical reals in the complex
	// table, which only grows for the life of the package.
	ComplexValues int

	// Tables holds the counters of each compute table. CacheLookups,
	// CacheHits, CTStores, CTEvictions and the ApplyCT*/ApplyMCT*
	// fields are sums over it (sumTables).
	Tables [NumTables]TableStats
}

// sumTables sets the aggregate compute-table fields from Tables.
func (s *Stats) sumTables() {
	var all, apply, applyM TableStats
	for id, t := range s.Tables {
		all = all.add(t)
		switch Table(id) {
		case TableApplyV, TableSplitV:
			apply = apply.add(t)
		case TableApplyM, TableSplitM, TableMergeM:
			applyM = applyM.add(t)
		}
	}
	s.CacheLookups, s.CacheHits, s.CTStores, s.CTEvictions = all.Lookups, all.Hits, all.Stores, all.Evictions
	s.ApplyCTLookups, s.ApplyCTHits, s.ApplyCTEvictions = apply.Lookups, apply.Hits, apply.Evictions
	s.ApplyMCTLookups, s.ApplyMCTHits, s.ApplyMCTEvictions = applyM.Lookups, applyM.Hits, applyM.Evictions
}

// Add returns the field-wise sum of s and b, for building aggregates
// over several packages' snapshots (replica pools, fleet metrics).
// Every field sums, including the load factors — callers wanting a
// mean load divide by the package count afterwards.
func (s Stats) Add(b Stats) Stats { return s.combine(b, false) }

// Delta returns the counter increase from prev to s, for windowed
// accounting over successive snapshots (per-session resource meters,
// telemetry sampling). Monotone counters subtract reset-safe — a
// snapshot from a fresh package (counter went backwards) clamps that
// field to the current value rather than going negative. Snapshot-time
// gauges (load factors, free/live node counts, complex-table size)
// keep s's current value: a delta of a gauge is meaningless.
func (s Stats) Delta(prev Stats) Stats { return s.combine(prev, true) }

// combine is Add (delta false) or Delta (delta true): the one list of
// Stats fields both walk. The aggregate compute-table fields are
// derived from the combined Tables.
func (s Stats) combine(o Stats, delta bool) Stats {
	op := func(a, b uint64) uint64 {
		if !delta {
			return a + b
		}
		if a < b {
			return a
		}
		return a - b
	}
	s.NodesCreatedV = op(s.NodesCreatedV, o.NodesCreatedV)
	s.NodesCreatedM = op(s.NodesCreatedM, o.NodesCreatedM)
	s.UniqueHitsV = op(s.UniqueHitsV, o.UniqueHitsV)
	s.UniqueHitsM = op(s.UniqueHitsM, o.UniqueHitsM)
	s.GCRuns = op(s.GCRuns, o.GCRuns)
	s.NodesFreed = op(s.NodesFreed, o.NodesFreed)
	s.GCPauseNS = op(s.GCPauseNS, o.GCPauseNS)
	s.NodesRecycledV = op(s.NodesRecycledV, o.NodesRecycledV)
	s.NodesRecycledM = op(s.NodesRecycledM, o.NodesRecycledM)
	s.UTCollisions = op(s.UTCollisions, o.UTCollisions)
	s.GatesFused = op(s.GatesFused, o.GatesFused)
	s.GateDDCacheHits = op(s.GateDDCacheHits, o.GateDDCacheHits)
	s.ApplyMIdentitySkips = op(s.ApplyMIdentitySkips, o.ApplyMIdentitySkips)
	s.ApplyMOps = op(s.ApplyMOps, o.ApplyMOps)
	s.MultMMOps = op(s.MultMMOps, o.MultMMOps)
	for i, t := range s.Tables {
		b := o.Tables[i]
		s.Tables[i] = TableStats{op(t.Lookups, b.Lookups), op(t.Hits, b.Hits), op(t.Stores, b.Stores), op(t.Evictions, b.Evictions)}
	}
	if !delta {
		s.UniqueLoadV += o.UniqueLoadV
		s.UniqueLoadM += o.UniqueLoadM
		s.FreeNodesV += o.FreeNodesV
		s.FreeNodesM += o.FreeNodesM
		s.LiveNodes += o.LiveNodes
		s.ComplexValues += o.ComplexValues
	}
	s.sumTables()
	return s
}

// NormScheme selects how vector nodes are normalized. Both schemes
// yield canonical diagrams; they differ in what the edge weights mean.
type NormScheme int

const (
	// NormL2 divides a node's outgoing weights by their 2-norm
	// (footnote 3 of the paper): squared weights are then branch
	// probabilities, enabling O(n) single-path sampling and ProbOne.
	// This is the default.
	NormL2 NormScheme = iota
	// NormMax divides by the entry of largest magnitude (the original
	// QMDD convention): weights are relative to the dominant branch,
	// probabilities are NOT directly readable. Exists for the
	// normalization ablation (A4).
	NormMax
)

// New creates a package for diagrams over n qubits using the default
// complex tolerance.
func New(n int) *Pkg { return NewTol(n, cnum.DefaultTolerance) }

// SetVectorNormalization switches the vector normalization scheme.
// It must be called before any diagrams are built: mixing schemes in
// one package breaks canonicity.
func (p *Pkg) SetVectorNormalization(s NormScheme) {
	if v, m := p.ActiveNodes(); v+m > 0 {
		panic("dd: cannot change normalization after diagrams were built")
	}
	p.vnorm = s
}

// NewTol creates a package with an explicit complex tolerance.
func NewTol(n int, tol float64) *Pkg {
	if n <= 0 {
		panic(fmt.Sprintf("dd: number of qubits must be positive, got %d", n))
	}
	if n > 62 {
		panic(fmt.Sprintf("dd: at most 62 qubits supported (basis-state indices are int64), got %d", n))
	}
	p := &Pkg{
		nqubits: n,
		cn:      cnum.NewTableTol(tol),
		vUnique: make([]vTable, n),
		mUnique: make([]mTable, n),
		gen:     1,
	}
	for i := 0; i < n; i++ {
		p.vUnique[i] = newVTable()
		p.mUnique[i] = newMTable()
	}
	p.SetComputeTableSize(ctDefaultSize)
	if o := defaultObserver.Load(); o != nil {
		p.observer = *o
	}
	return p
}

// Close ends the package: its node chunks, unique-table buckets,
// compute-table entries and complex-table slots go to package pool,
// where the next package draws them. Every diagram on p dies with it,
// referenced or not, so Close belongs where the package's life
// provably ends. An operation on a closed package panics rather than
// read memory another package may own by then; LastStats and LastShape
// keep answering with the last published snapshots. Closing twice is
// a no-op.
func (p *Pkg) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for i := range p.vUnique {
		pool.Put(p.vUnique[i].buckets)
	}
	for i := range p.mUnique {
		pool.Put(p.mUnique[i].buckets)
	}
	p.vUnique, p.mUnique = nil, nil
	p.vMem.close()
	p.mMem.close()
	p.SetComputeTableSize(0)
	p.cn.Release()
	p.gateIntern, p.identNodes = nil, nil
}

// checkOpen panics on a closed package. Node creation, reference
// counting, collection, statistics and the exported readers of a
// diagram's values call it, so a root that outlived its package fails
// loudly instead of reading recycled nodes.
func (p *Pkg) checkOpen() {
	if p.closed {
		panic("dd: use of a closed package")
	}
}

// SetComputeTableSize reconfigures the capacity (in entries, rounded
// up to a power of two) of the compute tables: tables of the full
// class get n, those of the quarter class a quarter of it, as the
// table list (tables, compute.go) declares. Current cache contents are
// dropped; diagrams are unaffected. The default is ctDefaultSize,
// 131072 entries; tables start small and grow toward their capacity
// under eviction pressure (see compute.go). Zero or negative turns
// every table off: lookups miss and nothing is stored, which is what
// the compute-table ablation measures against.
func (p *Pkg) SetComputeTableSize(n int) {
	for _, s := range p.tables() {
		size := 0
		if n > 0 {
			size = nextPow2(nextPow2(n) >> s.class)
		}
		s.t.setSize(size)
	}
}

// invalidateComputeTables discards all cached operation results in
// O(1) by bumping the generation counter: entries stamped with an
// older generation are treated as empty and overwritten in place.
func (p *Pkg) invalidateComputeTables() { p.gen++ }

// Qubits reports the number of qubits the package was created for.
func (p *Pkg) Qubits() int { return p.nqubits }

// Tolerance reports the complex identification radius.
func (p *Pkg) Tolerance() float64 { return p.cn.Tolerance() }

// HitCounts reports Stats().CacheHits and the gate kernels' hits,
// Stats().ApplyCTHits + Stats().ApplyMCTHits, without building a
// snapshot: it sums the hit counters of the table list in place. The
// apply sum covers the vector and the matrix kernel, so it reads the
// gate hits of a simulation and of a verification alike. A traced step
// reads them before and after every op.
func (p *Pkg) HitCounts() (cache, apply uint64) {
	for _, s := range p.tables() {
		h := s.t.counters().Hits
		cache += h
		switch s.id {
		case TableApplyV, TableSplitV, TableApplyM, TableSplitM, TableMergeM:
			apply += h
		}
	}
	return cache, apply
}

// Stats returns a snapshot of the package counters, including the
// point-in-time table-load and free-list gauges.
func (p *Pkg) Stats() Stats {
	p.checkOpen()
	s := p.stats
	var vCount, vBuckets, mCount, mBuckets int
	for i := range p.vUnique {
		vCount += p.vUnique[i].count
		vBuckets += len(p.vUnique[i].buckets)
	}
	for i := range p.mUnique {
		mCount += p.mUnique[i].count
		mBuckets += len(p.mUnique[i].buckets)
	}
	if vBuckets > 0 {
		s.UniqueLoadV = float64(vCount) / float64(vBuckets)
	}
	if mBuckets > 0 {
		s.UniqueLoadM = float64(mCount) / float64(mBuckets)
	}
	s.FreeNodesV = p.vMem.freeLen
	s.FreeNodesM = p.mMem.freeLen
	s.LiveNodes = p.live
	s.ComplexValues = p.cn.Size()
	s.Tables = p.tableStats()
	s.sumTables()
	return s
}

// VZero returns the all-zero vector edge (a zero stub).
func VZero() VEdge { return VEdge{W: 0, N: vTerminal} }

// VOne returns the terminal edge with weight one (the scalar 1).
func VOne() VEdge { return VEdge{W: 1, N: vTerminal} }

// MZero returns the all-zero matrix edge.
func MZero() MEdge { return MEdge{W: 0, N: mTerminal} }

// MOne returns the terminal matrix edge with weight one.
func MOne() MEdge { return MEdge{W: 1, N: mTerminal} }

// rootV canonicalizes the weight of a root edge that an exported
// operation returns. A weight that canonicalizes to zero leaves the
// all-zero vector, so the edge becomes the zero stub.
func (p *Pkg) rootV(e VEdge) VEdge {
	w := p.cn.Lookup(e.W)
	if w == 0 {
		return VZero()
	}
	return VEdge{W: w, N: e.N}
}

// rootM is rootV for matrix edges.
func (p *Pkg) rootM(e MEdge) MEdge {
	w := p.cn.Lookup(e.W)
	if w == 0 {
		return MZero()
	}
	return MEdge{W: w, N: e.N}
}

// makeVNode normalizes the candidate node (v, e) and interns it in the
// unique table, returning the weighted edge to it. The node's child
// weights are canonical; the returned top weight is raw, and only a
// root an exported operation returns is canonicalized (rootV). A child
// whose weight lies within the tolerance of zero is a zero stub.
//
// Vector nodes are normalized by the 2-norm of the pair of edge
// weights (footnote 3 of the paper): the outgoing weights are divided
// by sqrt(|w0|²+|w1|²) and the factor is pushed to the incoming edge.
// A residual phase is pulled out of the first non-zero edge so that it
// is real and non-negative, which makes the form canonical. As a
// consequence, |w0|² and |w1|² at every node are the conditional
// probabilities of the node's qubit being 0 or 1 — this is what makes
// single-path sampling (Hillmich et al., DAC 2020) work.
func (p *Pkg) makeVNode(v Var, e [2]VEdge) VEdge {
	p.checkOpen()
	if v < 0 || v >= p.nqubits {
		panic(fmt.Sprintf("dd: level %d out of range [0,%d)", v, p.nqubits))
	}
	tol := p.cn.Tolerance()
	for i, c := range e {
		if cnum.IsZero(c.W, tol) {
			e[i] = VZero()
			continue
		}
		if c.N.V != v-1 {
			panic(fmt.Sprintf("dd: child %d of level-%d node has level %d (quasi-reduction violated)", i, v, c.N.V))
		}
	}
	w0, w1 := e[0].W, e[1].W
	m0 := real(w0)*real(w0) + imag(w0)*imag(w0)
	m1 := real(w1)*real(w1) + imag(w1)*imag(w1)
	if m0+m1 == 0 {
		return VZero()
	}
	var top complex128
	if p.vnorm == NormMax {
		// QMDD convention: divide by the dominant entry (first on a
		// tie within tolerance) so that one weight becomes exactly 1.
		idx := 0
		if m1 > m0+tol {
			idx = 1
		}
		if idx == 0 {
			top = w0
			w1 /= top
			w0 = 1
		} else {
			top = w1
			w0 /= top
			w1 = 1
		}
	} else {
		norm := math.Sqrt(m0 + m1)
		w0 = complex(real(w0)/norm, imag(w0)/norm)
		w1 = complex(real(w1)/norm, imag(w1)/norm)
		top = complex(norm, 0)
		// Pull the phase of the first non-zero weight into the top edge.
		// That weight becomes its magnitude, an exact real, so its
		// imaginary part takes the complex table's zero fast path.
		first := &w0
		if w0 == 0 || cnum.IsZero(w0, tol) {
			first = &w1
		}
		if f := *first; imag(f) != 0 || real(f) < 0 {
			mag := math.Hypot(real(f), imag(f))
			phase := complex(real(f)/mag, imag(f)/mag)
			top *= phase
			inv := complex(real(phase), -imag(phase)) // 1/phase for unit-magnitude phase
			w0 *= inv
			w1 *= inv
			*first = complex(mag, 0)
		}
	}
	w0 = p.cn.Lookup(w0)
	w1 = p.cn.Lookup(w1)
	if w0 == 0 && w1 == 0 {
		// Both weights vanished within tolerance: the whole sub-vector
		// is numerically zero.
		return VZero()
	}
	n0, n1 := e[0].N, e[1].N
	if w0 == 0 {
		n0 = vTerminal
	}
	if w1 == 0 {
		n1 = vTerminal
	}
	h := hashVNode(w0, w1, n0, n1)
	tab := &p.vUnique[v]
	if n := tab.lookup(h, w0, w1, n0, n1, &p.stats); n != nil {
		p.stats.UniqueHitsV++
		return VEdge{W: top, N: n}
	}
	if p.budgetArmed && p.maxNodes > 0 && p.live >= p.maxNodes {
		panic(p.exceeded())
	}
	n, recycled := p.vMem.alloc()
	n.V = v
	n.hash = h
	n.E = [2]VEdge{{W: w0, N: n0}, {W: w1, N: n1}}
	tab.insert(n)
	p.live++
	p.stats.NodesCreatedV++
	if recycled {
		p.stats.NodesRecycledV++
	}
	return VEdge{W: top, N: n}
}

// makeMNode normalizes the candidate matrix node and interns it. As in
// makeVNode, the child weights are canonical, the returned top weight
// is raw, and a child within the tolerance of zero is a zero stub.
//
// Matrix nodes are normalized by the entry of largest magnitude
// (first such entry in index order on ties), which is divided out of
// all four edges and pushed to the incoming edge. This is the QMDD
// normalization scheme and yields a canonical form given canonical
// complex values.
func (p *Pkg) makeMNode(v Var, e [4]MEdge) MEdge {
	p.checkOpen()
	if v < 0 || v >= p.nqubits {
		panic(fmt.Sprintf("dd: level %d out of range [0,%d)", v, p.nqubits))
	}
	tol := p.cn.Tolerance()
	for i, c := range e {
		if cnum.IsZero(c.W, tol) {
			e[i] = MZero()
			continue
		}
		if c.N.V != v-1 {
			panic(fmt.Sprintf("dd: child %d of level-%d matrix node has level %d (quasi-reduction violated)", i, v, c.N.V))
		}
	}
	// Find the normalization entry: largest magnitude, first on ties
	// (within tolerance, to keep the choice stable under jitter). The
	// loop works on squared magnitudes, so the linear tolerance must
	// be squared consistently: |c| > max + tol is equivalent to
	// |c|² > max² + tol·(2·max + tol). Comparing |c|² against
	// max² + tol directly (as earlier revisions did) made the
	// tie-break too eager above magnitude 1 and too lax below it.
	argMax := -1
	maxMag := 0.0 // squared magnitude of the current arg-max
	maxLin := 0.0 // its linear magnitude
	for i, c := range e {
		m := real(c.W)*real(c.W) + imag(c.W)*imag(c.W)
		if m > maxMag+tol*(2*maxLin+tol) {
			maxMag = m
			maxLin = math.Sqrt(m)
			argMax = i
		}
	}
	if argMax < 0 {
		return MZero()
	}
	top := e[argMax].W
	inv := 1 / top
	var w [4]complex128
	var n [4]*MNode
	for i, c := range e {
		if i == argMax {
			w[i] = 1 // exact by construction
		} else {
			w[i] = p.cn.Lookup(c.W * inv)
		}
		n[i] = c.N
		if w[i] == 0 {
			n[i] = mTerminal
		}
	}
	h := hashMNode(&w, &n)
	tab := &p.mUnique[v]
	if nd := tab.lookup(h, &w, &n, &p.stats); nd != nil {
		p.stats.UniqueHitsM++
		return MEdge{W: top, N: nd}
	}
	if p.budgetArmed && p.maxNodes > 0 && p.live >= p.maxNodes {
		panic(p.exceeded())
	}
	nd, recycled := p.mMem.alloc()
	nd.V = v
	nd.hash = h
	for i := range nd.E {
		nd.E[i] = MEdge{W: w[i], N: n[i]}
	}
	tab.insert(nd)
	p.live++
	p.stats.NodesCreatedM++
	if recycled {
		p.stats.NodesRecycledM++
	}
	return MEdge{W: top, N: nd}
}

// ActiveNodes reports the number of live nodes in the unique tables
// (vector, matrix), using the per-table counts maintained on insert
// and sweep.
func (p *Pkg) ActiveNodes() (vec, mat int) {
	for i := range p.vUnique {
		vec += p.vUnique[i].count
	}
	for i := range p.mUnique {
		mat += p.mUnique[i].count
	}
	return vec, mat
}
