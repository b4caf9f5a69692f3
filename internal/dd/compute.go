package dd

import (
	"quantumdd/internal/cnum"
	"quantumdd/internal/pool"
)

// Fixed-size, direct-mapped, lossy compute tables for the operation
// caches (the compute-table design of the MQT DD package): a
// power-of-two entry array indexed by the key hash, where a colliding
// store simply evicts the previous entry. Losing an entry only costs
// a recomputation, never correctness, so the tables trade the perfect
// recall of the earlier unbounded Go maps for allocation-free O(1)
// lookups and stores with a hard memory bound.
//
// Invalidation is a generation counter: every entry records the
// package generation it was stored in, GarbageCollect bumps the
// package counter, and entries from older generations are treated as
// empty. This replaces resetCaches' seven make(map) calls — after a
// GC nothing is freed or reallocated, and the tables refill in place.

// Table identifies a compute table in Stats.Tables and in metric
// series. The two sides of a matrix-apply table share one ID.
type Table uint8

const (
	TableAddV Table = iota
	TableAddM
	TableMulMV
	TableMulMM
	TableKron
	TableConj
	TableFidelity
	TableApplyV
	TableSplitV
	TableApplyM
	TableSplitM
	TableMergeM
	// NumTables bounds Table values for table-indexed collectors.
	NumTables
)

// String returns the stable label used in metric series.
func (t Table) String() string {
	if t < NumTables {
		return tableNames[t]
	}
	return "unknown"
}

var tableNames = [NumTables]string{
	TableAddV: "add_v", TableAddM: "add_m", TableMulMV: "mul_mv", TableMulMM: "mul_mm",
	TableKron: "kron", TableConj: "conj", TableFidelity: "fidelity",
	TableApplyV: "apply_v", TableSplitV: "split_v",
	TableApplyM: "apply_m", TableSplitM: "split_m", TableMergeM: "merge_m",
}

// TableStats are the counters of one compute table.
type TableStats struct {
	Lookups   uint64
	Hits      uint64
	Stores    uint64
	Evictions uint64 // stores that displaced a live entry
}

func (t TableStats) add(b TableStats) TableStats {
	return TableStats{t.Lookups + b.Lookups, t.Hits + b.Hits, t.Stores + b.Stores, t.Evictions + b.Evictions}
}

// Capacity classes of the table list: a table's capacity is the
// configured size shifted right by its class.
const (
	ctFull    = 0
	ctQuarter = 2
)

// ctSlot is one entry of the table list.
type ctSlot struct {
	id    Table
	class uint8
	t     interface {
		setSize(n int)
		counters() TableStats
	}
}

// tables lists every compute table of p with its ID and capacity
// class; the class column is the one statement of each table's
// capacity. The two sides of a matrix-apply table are two entries
// under one ID, so 12 IDs make 15 entries. SetComputeTableSize, Close
// and Stats iterate this list and nothing else.
func (p *Pkg) tables() [15]ctSlot {
	return [...]ctSlot{
		{TableAddV, ctFull, &p.addVCache},
		{TableAddM, ctFull, &p.addMCache},
		{TableMulMV, ctFull, &p.mulMV},
		{TableMulMM, ctFull, &p.mulMM},
		{TableKron, ctQuarter, &p.kronCache},
		{TableConj, ctQuarter, &p.conjCache},
		{TableFidelity, ctQuarter, &p.fidCache},
		{TableApplyV, ctFull, &p.applyCache},
		{TableSplitV, ctQuarter, &p.applySplit},
		{TableApplyM, ctFull, &p.applyMCache[left]},
		{TableApplyM, ctFull, &p.applyMCache[right]},
		{TableSplitM, ctQuarter, &p.applyMSplit[left]},
		{TableSplitM, ctQuarter, &p.applyMSplit[right]},
		{TableMergeM, ctFull, &p.applyMMerge[left]},
		{TableMergeM, ctFull, &p.applyMMerge[right]},
	}
}

// tableStats sums the counters of the listed tables by ID.
func (p *Pkg) tableStats() (ts [NumTables]TableStats) {
	for _, s := range p.tables() {
		ts[s.id] = ts[s.id].add(s.t.counters())
	}
	return ts
}

// Table capacities (entries). The default size is the full class's
// capacity; SetComputeTableSize sets it. Tables are allocated lazily
// at ctMinSize and double adaptively (up to their capacity) when the
// evictions of a single generation exceed the current size —
// short-lived packages stay tiny, eviction-thrashed ones grow. Entry
// arrays are drawn from package pool, and an array a table outgrows
// goes back to it.
const (
	ctDefaultSize = 1 << 17
	ctMinSize     = 1 << 8
)

type ctEntry[K comparable, V any] struct {
	key K
	res V
	gen uint64 // package generation of the entry; 0 = never written
}

type computeTable[K comparable, V any] struct {
	entries []ctEntry[K, V] // allocated lazily on first store
	mask    uint64
	cap     int    // configured maximum capacity, a power of two
	evicted uint64 // evictions since the last resize, drives growth
	st      TableStats
}

// lookup returns the cached result for key, treating entries from
// older generations as empty, and counts the lookup and its hit.
func (t *computeTable[K, V]) lookup(h uint64, key K, gen uint64) (res V, ok bool) {
	t.st.Lookups++
	if t.entries == nil {
		return res, false
	}
	e := &t.entries[h&t.mask]
	if e.gen == gen && e.key == key {
		t.st.Hits++
		return e.res, true
	}
	return res, false
}

// store writes the entry, evicting whatever occupied the slot, and
// counts the store and its eviction.
func (t *computeTable[K, V]) store(h uint64, key K, res V, gen uint64) {
	if t.entries == nil {
		if t.cap == 0 {
			// Tables off (SetComputeTableSize(0)): lookups keep
			// missing on the nil entries.
			return
		}
		t.entries = pool.Get[ctEntry[K, V]](ctMinSize)
		t.mask = ctMinSize - 1
	}
	e := &t.entries[h&t.mask]
	if e.gen == gen && e.key != key {
		t.st.Evictions++
		t.evicted++
		if len(t.entries) < t.cap && t.evicted > uint64(len(t.entries)) {
			// Thrashing: double (contents are lossy, dropping them
			// only costs recomputation) and redirect the store.
			old := t.entries
			t.entries = pool.Get[ctEntry[K, V]](2 * len(old))
			pool.Put(old)
			t.mask = uint64(len(t.entries)) - 1
			t.evicted = 0
			e = &t.entries[h&t.mask]
		}
	}
	e.key = key
	e.res = res
	e.gen = gen
	t.st.Stores++
}

func (t *computeTable[K, V]) counters() TableStats { return t.st }

// setSize reconfigures the maximum capacity, handing the current
// entries to the pool; the next store draws ctMinSize entries again,
// unless the capacity is 0, which keeps the table off. The counters
// keep running.
func (t *computeTable[K, V]) setSize(n int) {
	pool.Put(t.entries)
	t.cap = n
	t.entries = nil
	t.mask = 0
	t.evicted = 0
}

// nextPow2 rounds n up to a power of two, clamped below at ctMinSize.
func nextPow2(n int) int {
	s := ctMinSize
	for s < n {
		s <<= 1
	}
	return s
}

// --- key hashing ---
//
// Node identities contribute through their stored unique-table hash
// (immutable for the node's lifetime within a generation; recycling
// only reuses a slot after a GC bumped the generation, so a stale
// entry keyed by the slot's previous life can never be returned).
// Residual weight ratios are canonical complex values and hash by bit
// pattern via cnum.

func hashAddV(k addVKey) uint64 {
	return hashMix(hashMix(k.a.hash, k.b.hash), cnum.HashComplex(k.r))
}

func hashAddM(k addMKey) uint64 {
	return hashMix(hashMix(k.a.hash, k.b.hash), cnum.HashComplex(k.r))
}

func hashMulMV(k mulMVKey) uint64 { return hashMix(k.m.hash, k.v.hash) }

func hashMulMM(k mulMMKey) uint64 { return hashMix(k.a.hash, k.b.hash) }

func hashKron(k kronKey) uint64 { return hashMix(k.a.hash, k.b.hash) }

func hashFid(k fidKey) uint64 { return hashMix(k.a.hash, k.b.hash) }
