package dd

// Structural shape profiling (the observability counterpart of the
// paper's visual argument): the diagrams themselves, not just the
// operations on them, are what users need to see. A ShapeProfile is a
// compact structural snapshot of one diagram — per-level node
// occupancy and edge counts, the sharing factor against the unshared
// decision-tree expansion, the identity-padding fraction of matrix
// DDs, a log-bucketed magnitude histogram of the canonical edge
// weights (the same quantity the magnitude-scaled rendering encodes
// as stroke width), and the per-level unique-table load factors of
// the owning package.
//
// A profile is one linear pass over the ordered walk of flat.go, the
// listing every rendered frame takes. PublishShapeV/M profile and
// publish on demand; SetShapeInterval + MaybeShapeV/M sample at a
// stride of engine steps, which ddbench S1 and the benchmark replay
// use. The disabled stride (interval 0) is a single branch and
// allocates nothing, pinned by an AllocsPerRun test.

import (
	"math"
	"math/cmplx"
)

// ShapeWeightBuckets is the size of ShapeProfile.WeightHist. Bucket k
// holds the count of non-zero edges whose weight magnitude lies in
// [2^(k-14), 2^(k-13)); the first and last buckets absorb under- and
// overflow. Canonically normalized diagrams keep |w| ≤ 1, so the top
// buckets near k=14 hold the dominant amplitudes and the low buckets
// reveal near-zero weights that approximation could truncate.
const ShapeWeightBuckets = 16

// shapeWeightBucketBias aligns bucket 0 with magnitude 2^-14.
const shapeWeightBucketBias = 14

// ShapeProfile is a structural snapshot of a single decision diagram.
// Published profiles are immutable: readers obtained via LastShape
// must not modify the slices.
type ShapeProfile struct {
	// Kind is "vector" or "matrix".
	Kind string `json:"kind"`
	// Seq numbers the published profiles of one package, so pollers
	// can tell a fresh sample from a repeat of the last one. Profiles
	// returned by ShapeV/ShapeM without publication carry Seq 0.
	Seq uint64 `json:"seq"`
	// Levels is the register width of the owning package. The
	// per-level slices are indexed by qubit level 0..Levels-1.
	Levels int `json:"levels"`
	// Nodes and Edges count distinct non-terminal nodes and non-zero
	// outgoing edges (the root edge included).
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// NodesPerLevel and EdgesPerLevel resolve the totals by level.
	NodesPerLevel []int `json:"nodesPerLevel"`
	EdgesPerLevel []int `json:"edgesPerLevel"`
	// MaxLevelNodes is the widest level's occupancy and WidestLevel
	// its index — the quantity whose growth rate predicts blowup.
	MaxLevelNodes int `json:"maxLevelNodes"`
	WidestLevel   int `json:"widestLevel"`
	// TreeNodes is the node count of the unshared decision-tree
	// expansion (each node counted once per root-to-node path), as a
	// float64 because it reaches 2^levels. SharingFactor is
	// TreeNodes/Nodes ≥ 1: how much structure sharing buys.
	TreeNodes     float64 `json:"treeNodes"`
	SharingFactor float64 `json:"sharingFactor"`
	// IdentityFraction is the fraction of the decision-tree expansion
	// whose nodes are canonical identity-chain nodes (matrix diagrams
	// only; 0 for vectors). Identity is detected by pointer equality
	// against the package's interned identity chain — canonicity
	// makes any identity sub-block pointer-identical to the chain
	// node at its level, so no per-node flag or matrix compare is
	// needed. A full-register identity scores 1.
	IdentityFraction float64 `json:"identityFraction"`
	// WeightHist is the log-bucketed magnitude histogram of all
	// non-zero edge weights; see ShapeWeightBuckets.
	WeightHist []int `json:"weightHist"`
	// UTLoad is the per-level unique-table load factor (entries per
	// bucket) of the owning package's table for this diagram kind —
	// package state, not diagram state, but sampled here because the
	// per-level resolution only matters alongside the occupancy.
	UTLoad []float64 `json:"utLoad"`
}

// shapeWeightBucket maps a non-zero magnitude to its histogram bucket.
func shapeWeightBucket(m float64) int {
	k := math.Ilogb(m) + shapeWeightBucketBias
	if k < 0 {
		return 0
	}
	if k >= ShapeWeightBuckets {
		return ShapeWeightBuckets - 1
	}
	return k
}

// ShapeWeightBucketBounds renders bucket k's magnitude range, for
// table output and self-describing JSON consumers.
func ShapeWeightBucketBounds(k int) (lo, hi float64) {
	lo = math.Ldexp(1, k-shapeWeightBucketBias)
	hi = math.Ldexp(1, k-shapeWeightBucketBias+1)
	if k == 0 {
		lo = 0
	}
	if k == ShapeWeightBuckets-1 {
		hi = math.Inf(1)
	}
	return lo, hi
}

// newShape allocates the profile's own slices but NodesPerLevel,
// which the walk's LevelHist allocates.
func newShape(kind string, levels int) ShapeProfile {
	return ShapeProfile{
		Kind:          kind,
		Levels:        levels,
		EdgesPerLevel: make([]int, levels),
		WeightHist:    make([]int, ShapeWeightBuckets),
		UTLoad:        make([]float64, levels),
	}
}

// edge counts one non-zero edge leaving level v; v < 0 is the root.
func (s *ShapeProfile) edge(v int, w complex128) {
	s.Edges++
	if v >= 0 {
		s.EdgesPerLevel[v]++
	}
	s.WeightHist[shapeWeightBucket(cmplx.Abs(w))]++
}

// finalize fills the derived fields shared by both passes.
func (s *ShapeProfile) finalize() {
	for v, n := range s.NodesPerLevel {
		s.Nodes += n
		if n > s.MaxLevelNodes {
			s.MaxLevelNodes = n
			s.WidestLevel = v
		}
	}
	if s.Nodes > 0 {
		s.SharingFactor = s.TreeNodes / float64(s.Nodes)
	}
}

// ShapeV profiles a vector diagram in one pass over its ordered walk.
// TreeNodes is summed bottom-up, as FlatV.PathCount sums paths: a
// node's unshared expansion is itself plus its non-terminal
// children's. The sums are integers, exact in a float64 below 2^53.
// Once the walker pool is warm only the profile's own slices allocate.
func (p *Pkg) ShapeV(e VEdge) ShapeProfile {
	p.checkOpen()
	s := newShape("vector", p.nqubits)
	for v := range p.vUnique {
		if b := len(p.vUnique[v].buckets); b > 0 {
			s.UTLoad[v] = float64(p.vUnique[v].count) / float64(b)
		}
	}
	if e.W != 0 {
		s.edge(-1, e.W)
	}
	f := FlattenV(e)
	defer f.Release()
	s.NodesPerLevel = f.LevelHist(p.nqubits)
	tree := scratch(&f.w.vals, len(f.Nodes))
	if f.Term >= 0 {
		tree[f.Term] = 0
	}
	for _, k := range f.Edges {
		i := k >> 1
		if k&1 == 0 {
			tree[i] = 1
		}
		n := f.Nodes[i]
		if w := n.E[k&1].W; w != 0 {
			s.edge(n.V, w)
			tree[i] += tree[f.Kids[k]]
		}
	}
	s.TreeNodes = tree[0]
	s.finalize()
	return s
}

// ShapeM profiles a matrix diagram, additionally measuring the
// identity-padding fraction against the canonical identity chain:
// the pass sums, next to each node's unshared expansion, how many of
// its nodes are chain nodes. Looking the chain up interns it if the
// current generation has not built one yet — a handful of unique-table
// hits for any diagram that actually contains identity blocks, since
// canonicity already forced those blocks onto the chain nodes.
func (p *Pkg) ShapeM(e MEdge) ShapeProfile {
	p.checkOpen()
	s := newShape("matrix", p.nqubits)
	for v := range p.mUnique {
		if b := len(p.mUnique[v].buckets); b > 0 {
			s.UTLoad[v] = float64(p.mUnique[v].count) / float64(b)
		}
	}
	if e.W != 0 {
		s.edge(-1, e.W)
	}
	if !e.IsTerminal() && p.nqubits > 0 {
		p.identNode(0) // ensure the chain is current before the walk
	}
	f := FlattenM(e)
	defer f.Release()
	s.NodesPerLevel = f.LevelHist(p.nqubits)
	// tree[i] is node i's unshared expansion, ident[i] its chain nodes.
	both := scratch(&f.w.vals, 2*len(f.Nodes))
	tree, ident := both[:len(f.Nodes)], both[len(f.Nodes):]
	if f.Term >= 0 {
		tree[f.Term], ident[f.Term] = 0, 0
	}
	for _, k := range f.Edges {
		i := k >> 2
		n := f.Nodes[i]
		if k&3 == 0 {
			tree[i], ident[i] = 1, 0
			if n == p.identNodes[n.V] {
				ident[i] = 1
			}
		}
		if w := n.E[k&3].W; w != 0 {
			s.edge(n.V, w)
			tree[i] += tree[f.Kids[k]]
			ident[i] += ident[f.Kids[k]]
		}
	}
	s.TreeNodes = tree[0]
	if s.TreeNodes > 0 {
		s.IdentityFraction = ident[0] / s.TreeNodes
	}
	s.finalize()
	return s
}

// SetShapeInterval sets the sampling stride for MaybeShapeV/M: a
// profile is computed and published every n calls. n ≤ 0 disables
// sampling (the default); the check then costs one branch and zero
// allocations. Like all Pkg mutators it must be called from the
// goroutine that owns the package.
func (p *Pkg) SetShapeInterval(n int) {
	p.shapeEvery = n
	p.shapeTick = 0
}

// MaybeShapeV counts one step and, when the stride elapses, profiles
// e and publishes the result for LastShape readers. Reports whether a
// profile was taken.
func (p *Pkg) MaybeShapeV(e VEdge) bool {
	if p.shapeEvery <= 0 {
		return false
	}
	p.shapeTick++
	if p.shapeTick < p.shapeEvery {
		return false
	}
	p.shapeTick = 0
	p.PublishShapeV(e)
	return true
}

// MaybeShapeM is MaybeShapeV for matrix diagrams.
func (p *Pkg) MaybeShapeM(e MEdge) bool {
	if p.shapeEvery <= 0 {
		return false
	}
	p.shapeTick++
	if p.shapeTick < p.shapeEvery {
		return false
	}
	p.shapeTick = 0
	p.PublishShapeM(e)
	return true
}

// PublishShapeV profiles e and publishes the profile as the package's
// latest shape snapshot, returning it. Unlike MaybeShapeV it ignores
// the stride.
func (p *Pkg) PublishShapeV(e VEdge) ShapeProfile {
	s := p.ShapeV(e)
	p.shapeSeq++
	s.Seq = p.shapeSeq
	p.shapeSnap.Store(&s)
	return s
}

// PublishShapeM is PublishShapeV for matrix diagrams.
func (p *Pkg) PublishShapeM(e MEdge) ShapeProfile {
	s := p.ShapeM(e)
	p.shapeSeq++
	s.Seq = p.shapeSeq
	p.shapeSnap.Store(&s)
	return s
}

// LastShape returns the most recently published shape profile, or nil
// if none has been published. Safe to call from any goroutine; the
// returned profile is immutable and must not be modified.
func (p *Pkg) LastShape() *ShapeProfile {
	return p.shapeSnap.Load()
}
