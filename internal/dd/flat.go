package dd

// The ordered walk behind every rendered frame. FlattenV/FlattenM list
// a diagram's distinct nodes once, with the index of each node's child
// behind every port, in the order a recursive depth-first walk meets
// them: pre-order, children in port order, the terminal numbered when
// it is first reached. The renderer numbers its nodes and orders its
// edges by this walk, and the frame statistics (node count, nodes per
// level, path count, per-qubit probabilities) are linear passes over
// the same lists, so one walk serves the whole frame. The listing lives
// in a pooled walker and costs no allocation once the pool is warm.

// FlatV is the ordered listing of a vector diagram. It is valid until
// Release.
type FlatV struct {
	Root VEdge
	// Nodes lists the distinct nodes, the root first; the terminal
	// appears at index Term when the root or an edge reaches it.
	Nodes []*VNode
	// Kids[2i+p] is the index of the child behind port p of node i,
	// -1 for a zero-weight edge; both entries of the terminal are -1.
	Kids []int32
	// Edges lists 2i+p for every port p of every non-terminal node i,
	// in the order the recursive walk leaves them: an edge to a child
	// reached for the first time follows all edges below that child.
	Edges []int32
	Term  int32 // index of the terminal in Nodes, -1 if absent
	w     *vWalker
}

// FlatM is the ordered listing of a matrix diagram, with four ports
// per node: Kids[4i+p], Edges holding 4i+p.
type FlatM struct {
	Root  MEdge
	Nodes []*MNode
	Kids  []int32
	Edges []int32
	Term  int32
	w     *mWalker
}

// FlattenV lists the nodes of e in walk order. The caller must
// Release the listing and not use it afterwards.
func FlattenV(e VEdge) *FlatV {
	w := vWalkerPool.Get().(*vWalker)
	if len(w.ids) != len(w.set) {
		w.ids = make([]int32, len(w.set))
	}
	f := &w.flat
	f.Root, f.Term, f.w = e, -1, w
	w.child(e.N)
	return f
}

// FlattenM lists the nodes of e in walk order. The caller must
// Release the listing and not use it afterwards.
func FlattenM(e MEdge) *FlatM {
	w := mWalkerPool.Get().(*mWalker)
	if len(w.ids) != len(w.set) {
		w.ids = make([]int32, len(w.set))
	}
	f := &w.flat
	f.Root, f.Term, f.w = e, -1, w
	w.child(e.N)
	return f
}

// flatten appends the marked node n under index id, then walks its
// ports. The recursion is as deep as the diagram has levels.
func (w *vWalker) flatten(n *VNode, id int32) {
	f := &w.flat
	f.Nodes = append(f.Nodes, n)
	f.Kids = append(f.Kids, -1, -1)
	for p := range n.E {
		k := 2*id + int32(p)
		if c := &n.E[p]; c.W != 0 {
			f.Kids[k] = w.child(c.N)
		}
		f.Edges = append(f.Edges, k)
	}
}

// child returns the listing index of the node behind a non-zero edge,
// listing it and everything below it when the walk first reaches it.
func (w *vWalker) child(n *VNode) int32 {
	f := &w.flat
	if n == vTerminal {
		if f.Term < 0 {
			f.terminal()
		}
		return f.Term
	}
	notSwept(n.V)
	i, fresh := w.insert(n)
	if !fresh {
		return w.ids[i]
	}
	id := int32(len(f.Nodes))
	w.ids[i] = id
	w.flatten(n, id)
	return id
}

func (w *mWalker) flatten(n *MNode, id int32) {
	f := &w.flat
	f.Nodes = append(f.Nodes, n)
	f.Kids = append(f.Kids, -1, -1, -1, -1)
	for p := range n.E {
		k := 4*id + int32(p)
		if c := &n.E[p]; c.W != 0 {
			f.Kids[k] = w.child(c.N)
		}
		f.Edges = append(f.Edges, k)
	}
}

func (w *mWalker) child(n *MNode) int32 {
	f := &w.flat
	if n == mTerminal {
		if f.Term < 0 {
			f.terminal()
		}
		return f.Term
	}
	notSwept(n.V)
	i, fresh := w.insert(n)
	if !fresh {
		return w.ids[i]
	}
	id := int32(len(f.Nodes))
	w.ids[i] = id
	w.flatten(n, id)
	return id
}

func (f *FlatV) terminal() {
	f.Term = int32(len(f.Nodes))
	f.Nodes = append(f.Nodes, vTerminal)
	f.Kids = append(f.Kids, -1, -1)
}

func (f *FlatM) terminal() {
	f.Term = int32(len(f.Nodes))
	f.Nodes = append(f.Nodes, mTerminal)
	f.Kids = append(f.Kids, -1, -1, -1, -1)
}

// Release returns the listing's walker to the pool. Dropping the node
// pointers keeps the pool from pinning a collected package's nodes.
func (f *FlatV) Release() {
	w := f.w
	clear(f.Nodes)
	f.Root, f.Nodes, f.Kids, f.Edges = VEdge{}, f.Nodes[:0], f.Kids[:0], f.Edges[:0]
	w.release()
}

// Release returns the listing's walker to the pool.
func (f *FlatM) Release() {
	w := f.w
	clear(f.Nodes)
	f.Root, f.Nodes, f.Kids, f.Edges = MEdge{}, f.Nodes[:0], f.Kids[:0], f.Edges[:0]
	w.release()
}

// Size reports the number of non-terminal nodes, as SizeV does.
func (f *FlatV) Size() int { return len(f.Edges) / 2 }

// Size reports the number of non-terminal nodes, as SizeM does.
func (f *FlatM) Size() int { return len(f.Edges) / 4 }

// LevelHist counts the non-terminal nodes per level, index = level,
// for levels 0..levels-1.
func (f *FlatV) LevelHist(levels int) []int {
	counts := make([]int, levels)
	for _, n := range f.Nodes {
		if n != vTerminal {
			counts[n.V]++
		}
	}
	return counts
}

// LevelHist counts the non-terminal nodes per level, index = level,
// for levels 0..levels-1.
func (f *FlatM) LevelHist(levels int) []int {
	counts := make([]int, levels)
	for _, n := range f.Nodes {
		if n != mTerminal {
			counts[n.V]++
		}
	}
	return counts
}

// PathCount returns the number of root-to-terminal paths with non-zero
// weight, as the package-level PathCount does.
//
// Every pass over Edges sees a node's ports in port order and each
// port after the child behind it is complete, so a node's value is
// final once its last port is passed.
func (f *FlatV) PathCount() int64 {
	if f.Root.IsZero() {
		return 0
	}
	c := scratch(&f.w.paths, len(f.Nodes))
	if f.Term >= 0 {
		c[f.Term] = 1
	}
	for _, k := range f.Edges {
		i := k >> 1
		if k&1 == 0 {
			c[i] = 0
		}
		if kid := f.Kids[k]; kid >= 0 {
			c[i] += c[kid]
		}
	}
	return c[0]
}

// probOne is ProbOne's pass for qubit q: a node at level q yields its
// squared |1⟩-branch weight, a node above it the sum over its branches
// of squared weight times the child's value, branch 0 first and zero
// branches skipped, the terminal 0. These are the memoized recursion's
// operations in its order, so the result is bit for bit the same.
func (f *FlatV) probOne(q int) float64 {
	v := scratch(&f.w.vals, len(f.Nodes))
	if f.Term >= 0 {
		v[f.Term] = 0
	}
	for _, k := range f.Edges {
		i, port := k>>1, k&1
		n := f.Nodes[i]
		if port == 0 {
			v[i] = 0
		}
		w := n.E[port].W
		m := real(w)*real(w) + imag(w)*imag(w)
		if n.V == q {
			if port == 1 {
				v[i] = m
			}
			continue
		}
		if m != 0 {
			v[i] += m * v[f.Kids[k]]
		}
	}
	return v[0]
}

// scratch returns (*buf)[:n], growing the buffer when it is short.
func scratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}
