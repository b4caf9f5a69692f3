package dd

import "sync"

// Node-count walks. SizeV/SizeM run after every gate of the
// simulator's peak tracking and of a verify build, so they are
// iterative (no recursion) and draw their visited set and work stack
// from a pool instead of allocating per call. The same pooled walkers
// back the ordered walk of flat.go that every web frame takes. The
// walkers are safe for concurrent use across sessions: each call
// checks a private walker out of the pool.
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
	// The ordered walk (flat.go) also keeps each marked node's index
	// in its listing, in ids[slot]; the probes touch only set.
	ids   []int32
	flat  FlatV     // the ordered walk's listing
	vals  []float64 // per-node scratch of the flat statistics
	paths []int64
}

type mWalker struct {
	set   []*MNode
	used  []uint32
	stack []*MNode
	ids   []int32
	flat  FlatM
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

// grow doubles the set, keeping the load at most 1/2, and moves the
// listing indices along when the walk keeps them.
func (w *vWalker) grow() {
	old, oldIDs := w.set, w.ids
	w.set = make([]*VNode, 2*len(old))
	if oldIDs != nil {
		w.ids = make([]int32, len(w.set))
	}
	for k, i := range w.used {
		j := w.slot(old[i])
		w.set[j] = old[i]
		if oldIDs != nil {
			w.ids[j] = oldIDs[i]
		}
		w.used[k] = uint32(j)
	}
}

func (w *mWalker) grow() {
	old, oldIDs := w.set, w.ids
	w.set = make([]*MNode, 2*len(old))
	if oldIDs != nil {
		w.ids = make([]int32, len(w.set))
	}
	for k, i := range w.used {
		j := w.slot(old[i])
		w.set[j] = old[i]
		if oldIDs != nil {
			w.ids[j] = oldIDs[i]
		}
		w.used[k] = uint32(j)
	}
}

// insert marks n unless it is already marked. It returns n's slot and
// whether n was new.
func (w *vWalker) insert(n *VNode) (uint64, bool) {
	i := w.slot(n)
	if w.set[i] != nil {
		return i, false
	}
	if 2*(len(w.used)+1) > len(w.set) {
		w.grow()
		i = w.slot(n)
	}
	w.set[i] = n
	w.used = append(w.used, uint32(i))
	return i, true
}

func (w *mWalker) insert(n *MNode) (uint64, bool) {
	i := w.slot(n)
	if w.set[i] != nil {
		return i, false
	}
	if 2*(len(w.used)+1) > len(w.set) {
		w.grow()
		i = w.slot(n)
	}
	w.set[i] = n
	w.used = append(w.used, uint32(i))
	return i, true
}

// push marks n and queues it unless it is the terminal or already
// marked.
func (w *vWalker) push(n *VNode) {
	if n == vTerminal {
		return
	}
	notSwept(n.V)
	if _, fresh := w.insert(n); fresh {
		w.stack = append(w.stack, n)
	}
}

func (w *mWalker) push(n *MNode) {
	if n == mTerminal {
		return
	}
	notSwept(n.V)
	if _, fresh := w.insert(n); fresh {
		w.stack = append(w.stack, n)
	}
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
