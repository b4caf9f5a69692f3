package dd

import (
	"quantumdd/internal/cnum"
	"quantumdd/internal/pool"
)

// Per-level bucketed unique tables. Each level owns a power-of-two
// array of bucket heads; nodes chain through their intrusive next
// pointer. A node's hash is the FNV-style digest of its normalized
// child weights and child identities, computed exactly once (the
// weights are canonical complex values, so bit-pattern hashing via
// package cnum is sound) and stored on the node so that growth
// rehashes and compute-table keys never touch the weights again.
// This replaces the earlier map[vKey]*VNode / map[mKey]*MNode tables,
// whose large struct keys were re-hashed (and copied) by the Go
// runtime on every single lookup.

// initialBuckets sizes a fresh per-level table. Tables double when
// the chain load reaches 1.0.
const initialBuckets = 64

// Hash seeds for the shared terminal nodes, giving terminal children
// a well-mixed contribution to their parents' hashes.
const (
	vTerminalHash = 0x9e3779b97f4a7c15
	mTerminalHash = 0xbf58476d1ce4e5b9
)

// hashMix folds x into h with multiply-xor; the multiply makes the
// fold order-sensitive, so transposed children hash differently.
func hashMix(h, x uint64) uint64 {
	h = (h ^ x) * 0x00000100000001b3 // FNV prime
	return h ^ h>>29
}

// hashVNode digests a normalized vector node candidate.
func hashVNode(w0, w1 complex128, n0, n1 *VNode) uint64 {
	h := cnum.HashComplex(w0)
	h = hashMix(h, cnum.HashComplex(w1))
	h = hashMix(h, n0.hash)
	h = hashMix(h, n1.hash)
	return h
}

// hashMNode digests a normalized matrix node candidate.
func hashMNode(w *[4]complex128, n *[4]*MNode) uint64 {
	h := cnum.HashComplex(w[0])
	for i := 1; i < 4; i++ {
		h = hashMix(h, cnum.HashComplex(w[i]))
	}
	for i := 0; i < 4; i++ {
		h = hashMix(h, n[i].hash)
	}
	return h
}

// vTable is one level's unique table for vector nodes.
type vTable struct {
	buckets []*VNode
	mask    uint64
	count   int
}

func newVTable() vTable {
	return vTable{buckets: pool.Get[*VNode](initialBuckets), mask: initialBuckets - 1}
}

// lookup returns the interned node matching the normalized candidate,
// counting chain collisions into stats.
func (t *vTable) lookup(h uint64, w0, w1 complex128, n0, n1 *VNode, st *Stats) *VNode {
	for n := t.buckets[h&t.mask]; n != nil; n = n.next {
		if n.hash == h && n.E[0].W == w0 && n.E[1].W == w1 && n.E[0].N == n0 && n.E[1].N == n1 {
			return n
		}
		st.UTCollisions++
	}
	return nil
}

// insert links a freshly built node into its bucket, growing first if
// the table is at full load.
func (t *vTable) insert(n *VNode) {
	if t.count >= len(t.buckets) {
		t.grow()
	}
	i := n.hash & t.mask
	n.next = t.buckets[i]
	t.buckets[i] = n
	t.count++
}

func (t *vTable) grow() {
	old := t.buckets
	t.buckets = pool.Get[*VNode](2 * len(old))
	t.mask = uint64(len(t.buckets)) - 1
	for _, head := range old {
		for n := head; n != nil; {
			next := n.next
			i := n.hash & t.mask
			n.next = t.buckets[i]
			t.buckets[i] = n
			n = next
		}
	}
	pool.Put(old)
}

// sweep unlinks every unreferenced node, releasing it into the arena,
// and reports how many were freed.
func (t *vTable) sweep(a *vArena) int {
	freed := 0
	for i := range t.buckets {
		pp := &t.buckets[i]
		for n := *pp; n != nil; n = *pp {
			if n.ref == 0 {
				*pp = n.next
				a.release(n)
				freed++
			} else {
				pp = &n.next
			}
		}
	}
	t.count -= freed
	return freed
}

// mTable is one level's unique table for matrix nodes.
type mTable struct {
	buckets []*MNode
	mask    uint64
	count   int
}

func newMTable() mTable {
	return mTable{buckets: pool.Get[*MNode](initialBuckets), mask: initialBuckets - 1}
}

func (t *mTable) lookup(h uint64, w *[4]complex128, cn *[4]*MNode, st *Stats) *MNode {
	for n := t.buckets[h&t.mask]; n != nil; n = n.next {
		if n.hash == h &&
			n.E[0].W == w[0] && n.E[1].W == w[1] && n.E[2].W == w[2] && n.E[3].W == w[3] &&
			n.E[0].N == cn[0] && n.E[1].N == cn[1] && n.E[2].N == cn[2] && n.E[3].N == cn[3] {
			return n
		}
		st.UTCollisions++
	}
	return nil
}

func (t *mTable) insert(n *MNode) {
	if t.count >= len(t.buckets) {
		t.grow()
	}
	i := n.hash & t.mask
	n.next = t.buckets[i]
	t.buckets[i] = n
	t.count++
}

func (t *mTable) grow() {
	old := t.buckets
	t.buckets = pool.Get[*MNode](2 * len(old))
	t.mask = uint64(len(t.buckets)) - 1
	for _, head := range old {
		for n := head; n != nil; {
			next := n.next
			i := n.hash & t.mask
			n.next = t.buckets[i]
			t.buckets[i] = n
			n = next
		}
	}
	pool.Put(old)
}

func (t *mTable) sweep(a *mArena) int {
	freed := 0
	for i := range t.buckets {
		pp := &t.buckets[i]
		for n := *pp; n != nil; n = *pp {
			if n.ref == 0 {
				*pp = n.next
				a.release(n)
				freed++
			} else {
				pp = &n.next
			}
		}
	}
	t.count -= freed
	return freed
}
