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

// Default table capacities (entries). The four binary-operation
// tables dominate hit rates and get the larger cap; Kron, adjoint
// and fidelity see far fewer distinct keys. Tables are allocated
// lazily at ctMinSize and double adaptively (up to their cap) when
// the evictions of a single generation exceed the current size —
// short-lived packages stay tiny, eviction-thrashed ones grow. Entry
// arrays are drawn from package pool, and an array a table outgrows
// goes back to it.
const (
	ctDefaultLarge = 1 << 17
	ctDefaultSmall = 1 << 13
	ctMinSize      = 1 << 8
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
}

// lookup returns the cached result for key, treating entries from
// older generations as empty.
func (t *computeTable[K, V]) lookup(h uint64, key K, gen uint64) (res V, ok bool) {
	if t.entries == nil {
		return res, false
	}
	e := &t.entries[h&t.mask]
	if e.gen == gen && e.key == key {
		return e.res, true
	}
	return res, false
}

// store writes the entry, evicting whatever occupied the slot. It
// reports whether a live entry was displaced, so callers can attribute
// the eviction to their own per-operation counters as well.
func (t *computeTable[K, V]) store(h uint64, key K, res V, gen uint64, st *Stats) (evicted bool) {
	if t.entries == nil {
		if t.cap == 0 {
			// Tables off (SetComputeTableSize(0)): lookups keep
			// missing on the nil entries.
			return false
		}
		t.entries = pool.Get[ctEntry[K, V]](ctMinSize)
		t.mask = ctMinSize - 1
	}
	e := &t.entries[h&t.mask]
	if e.gen == gen && e.key != key {
		st.CTEvictions++
		evicted = true
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
	st.CTStores++
	return evicted
}

// setSize reconfigures the maximum capacity, handing the current
// entries to the pool; the next store draws ctMinSize entries again,
// unless the capacity is 0, which keeps the table off.
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
