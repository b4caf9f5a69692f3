package dd

import "quantumdd/internal/pool"

// Node memory manager: chunked slab allocation plus free-list
// recycling, mirroring the memory manager of the MQT DD package
// (Wille, Hillmich, Burgholzer, arXiv:2108.07027, Sec. "Tools").
//
// Nodes are carved out of chunks so that allocating a node
// on the hot path is a pointer bump instead of a Go heap allocation,
// and nodes swept by GarbageCollect are threaded onto a free list
// (through their intrusive next pointer) and handed out again by the
// next allocation. Node churn inside a long simulation is invisible to
// the Go runtime, and so are the chunks themselves as long as package
// pool holds some: chunks come from its size-classed pools, growth
// never frees one, and a finished package (Pkg.Close) hands all of its
// chunks back for the next package to draw. The Go heap sees a chunk
// only when a pool misses.
//
// Recycling is safe because the sweep in gc.go removes a node from the
// unique table in the same step that releases it: by the ref-counting
// invariant every surviving node's children survive too, so no live
// structure can reach a recycled slot.

// Chunk sizes grow geometrically from firstChunk to maxChunk, so a
// short-lived package (one web request, one small example) costs a
// few KiB while a long-running simulation converges to large slabs.
const (
	firstChunk = 128
	maxChunk   = 8192
)

// nextChunkLen doubles the previous chunk size up to the cap.
func nextChunkLen(prev int) int {
	if prev == 0 {
		return firstChunk
	}
	if prev >= maxChunk {
		return maxChunk
	}
	return 2 * prev
}

// vArena allocates VNodes.
type vArena struct {
	chunks  [][]VNode
	used    int    // entries handed out from the newest chunk
	free    *VNode // recycled nodes, linked through next
	freeLen int
}

// alloc returns a node with all fields zeroed; recycled reports
// whether it came from the free list.
func (a *vArena) alloc() (n *VNode, recycled bool) {
	if n = a.free; n != nil {
		a.free = n.next
		a.freeLen--
		n.next = nil
		return n, true
	}
	if len(a.chunks) == 0 || a.used == len(a.chunks[len(a.chunks)-1]) {
		prev := 0
		if len(a.chunks) > 0 {
			prev = len(a.chunks[len(a.chunks)-1])
		}
		a.chunks = append(a.chunks, pool.Get[VNode](nextChunkLen(prev)))
		a.used = 0
	}
	c := a.chunks[len(a.chunks)-1]
	n = &c[a.used]
	a.used++
	return n, false
}

// release clears the node and pushes it onto the free list. The clear
// matters: stale edges must not survive into the slot's next life.
// The detector build poisons the node and recycles a fresh one in its
// place (poison_on.go).
func (a *vArena) release(n *VNode) {
	n = poisonV(n)
	*n = VNode{}
	n.next = a.free
	a.free = n
	a.freeLen++
}

// close hands every chunk to the pool and empties the arena. Nodes
// still pointing into the chunks are dead from here on.
func (a *vArena) close() {
	for _, c := range a.chunks {
		pool.Put(c)
	}
	*a = vArena{}
}

// mArena allocates MNodes.
type mArena struct {
	chunks  [][]MNode
	used    int
	free    *MNode
	freeLen int
}

func (a *mArena) alloc() (n *MNode, recycled bool) {
	if n = a.free; n != nil {
		a.free = n.next
		a.freeLen--
		n.next = nil
		return n, true
	}
	if len(a.chunks) == 0 || a.used == len(a.chunks[len(a.chunks)-1]) {
		prev := 0
		if len(a.chunks) > 0 {
			prev = len(a.chunks[len(a.chunks)-1])
		}
		a.chunks = append(a.chunks, pool.Get[MNode](nextChunkLen(prev)))
		a.used = 0
	}
	c := a.chunks[len(a.chunks)-1]
	n = &c[a.used]
	a.used++
	return n, false
}

func (a *mArena) release(n *MNode) {
	n = poisonM(n)
	*n = MNode{}
	n.next = a.free
	a.free = n
	a.freeLen++
}

func (a *mArena) close() {
	for _, c := range a.chunks {
		pool.Put(c)
	}
	*a = mArena{}
}
