package dd

import "sync"

// Node-count walks. SizeV/SizeM run on every web frame render, after
// every gate of the simulator's peak tracking and of a verify build,
// so they are iterative (no recursion) and draw their visited set and
// work stack from a pool instead of allocating per call. The walkers
// are safe for concurrent use across sessions: each call checks a
// private walker out of the pool.
//
// The visited set is open-addressed over the node's stored
// unique-table hash, with linear probing and pointer comparison, so a
// membership test costs one masked index and usually one load. The set
// records the slots it filled, and release empties exactly those:
// resetting costs O(visited), not O(capacity), so a walker that once
// grew for a large diagram does not tax later small walks. (A Go map
// would hash the pointer on every probe and clear its whole capacity
// on reuse.)

// minWalkSlots is the set capacity of a fresh walker.
const minWalkSlots = 64

// maxPooledSlots bounds the set capacity of walkers returned to the
// pool, so the pool never pins the memory of a huge walk.
const maxPooledSlots = 1 << 16

type vWalker struct {
	set   []*VNode // power-of-two open-addressed visited set, nil = empty
	used  []uint32 // indices of the occupied set slots
	stack []*VNode
}

type mWalker struct {
	set   []*MNode
	used  []uint32
	stack []*MNode
}

var vWalkerPool = sync.Pool{New: func() any {
	return &vWalker{set: make([]*VNode, minWalkSlots)}
}}

var mWalkerPool = sync.Pool{New: func() any {
	return &mWalker{set: make([]*MNode, minWalkSlots)}
}}

func (w *vWalker) release() {
	if len(w.set) > maxPooledSlots {
		return
	}
	for _, i := range w.used {
		w.set[i] = nil
	}
	w.used = w.used[:0]
	w.stack = w.stack[:0]
	vWalkerPool.Put(w)
}

func (w *mWalker) release() {
	if len(w.set) > maxPooledSlots {
		return
	}
	for _, i := range w.used {
		w.set[i] = nil
	}
	w.used = w.used[:0]
	w.stack = w.stack[:0]
	mWalkerPool.Put(w)
}

// slot returns the set index holding n, or the empty index where n
// belongs.
func (w *vWalker) slot(n *VNode) uint64 {
	mask := uint64(len(w.set) - 1)
	i := n.hash & mask
	for w.set[i] != nil && w.set[i] != n {
		i = (i + 1) & mask
	}
	return i
}

func (w *mWalker) slot(n *MNode) uint64 {
	mask := uint64(len(w.set) - 1)
	i := n.hash & mask
	for w.set[i] != nil && w.set[i] != n {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the set, keeping the load at most 1/2.
func (w *vWalker) grow() {
	old := w.set
	w.set = make([]*VNode, 2*len(old))
	for k, i := range w.used {
		j := w.slot(old[i])
		w.set[j] = old[i]
		w.used[k] = uint32(j)
	}
}

func (w *mWalker) grow() {
	old := w.set
	w.set = make([]*MNode, 2*len(old))
	for k, i := range w.used {
		j := w.slot(old[i])
		w.set[j] = old[i]
		w.used[k] = uint32(j)
	}
}

// push marks n and queues it unless it is the terminal or already
// marked.
func (w *vWalker) push(n *VNode) {
	if n == vTerminal {
		return
	}
	i := w.slot(n)
	if w.set[i] != nil {
		return
	}
	if 2*(len(w.used)+1) > len(w.set) {
		w.grow()
		i = w.slot(n)
	}
	w.set[i] = n
	w.used = append(w.used, uint32(i))
	w.stack = append(w.stack, n)
}

func (w *mWalker) push(n *MNode) {
	if n == mTerminal {
		return
	}
	i := w.slot(n)
	if w.set[i] != nil {
		return
	}
	if 2*(len(w.used)+1) > len(w.set) {
		w.grow()
		i = w.slot(n)
	}
	w.set[i] = n
	w.used = append(w.used, uint32(i))
	w.stack = append(w.stack, n)
}

// visitV visits every distinct non-terminal node reachable from root.
func visitV(root *VNode, visit func(n *VNode)) {
	w := vWalkerPool.Get().(*vWalker)
	w.push(root)
	for len(w.stack) > 0 {
		n := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		visit(n)
		w.push(n.E[0].N)
		w.push(n.E[1].N)
	}
	w.release()
}

// visitM visits every distinct non-terminal node reachable from root.
func visitM(root *MNode, visit func(n *MNode)) {
	w := mWalkerPool.Get().(*mWalker)
	w.push(root)
	for len(w.stack) > 0 {
		n := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		visit(n)
		for i := range n.E {
			w.push(n.E[i].N)
		}
	}
	w.release()
}

// SizeV reports the number of distinct non-terminal nodes reachable
// from e — the "number of nodes" of the paper (the terminal is not
// counted, cf. Ex. 6).
func SizeV(e VEdge) int {
	n := 0
	visitV(e.N, func(*VNode) { n++ })
	return n
}

// SizeM reports the number of distinct non-terminal nodes reachable
// from e.
func SizeM(e MEdge) int {
	n := 0
	visitM(e.N, func(*MNode) { n++ })
	return n
}
