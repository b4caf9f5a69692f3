package dd

import "sync"

// Node-count walks. SizeV/SizeM run on every web frame render and
// inside the simulator's peak tracking, so they are iterative (no
// recursion) and draw their visited set and work stack from a pool
// instead of allocating fresh maps per call. The walkers are safe for
// concurrent use across sessions: each call checks a private walker
// out of the pool.

type vWalker struct {
	seen  map[*VNode]struct{}
	stack []*VNode
}

type mWalker struct {
	seen  map[*MNode]struct{}
	stack []*MNode
}

var vWalkerPool = sync.Pool{New: func() any {
	return &vWalker{seen: make(map[*VNode]struct{}, 64), stack: make([]*VNode, 0, 64)}
}}

var mWalkerPool = sync.Pool{New: func() any {
	return &mWalker{seen: make(map[*MNode]struct{}, 64), stack: make([]*MNode, 0, 64)}
}}

// maxPooledWalk bounds the walkers returned to the pool. A Go map
// never shrinks and clear costs O(capacity), so a walker that once
// visited a large diagram would tax every later small walk with a
// large clear; such walkers are left to the garbage collector.
const maxPooledWalk = 1024

func (w *vWalker) release() {
	if len(w.seen) > maxPooledWalk {
		return
	}
	clear(w.seen)
	w.stack = w.stack[:0]
	vWalkerPool.Put(w)
}

func (w *mWalker) release() {
	if len(w.seen) > maxPooledWalk {
		return
	}
	clear(w.seen)
	w.stack = w.stack[:0]
	mWalkerPool.Put(w)
}

// push marks n and queues it, returning whether it was new.
func (w *vWalker) push(n *VNode) bool {
	if n == vTerminal {
		return false
	}
	if _, ok := w.seen[n]; ok {
		return false
	}
	w.seen[n] = struct{}{}
	w.stack = append(w.stack, n)
	return true
}

func (w *mWalker) push(n *MNode) bool {
	if n == mTerminal {
		return false
	}
	if _, ok := w.seen[n]; ok {
		return false
	}
	w.seen[n] = struct{}{}
	w.stack = append(w.stack, n)
	return true
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
