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
// Profiles reuse the pooled iterative walkers of size.go and are
// sampled at a configurable stride (SetShapeInterval + MaybeShapeV/M)
// so the amortized cost stays bounded: one O(nodes) walk every N
// steps against N step costs that are themselves Ω(nodes). The
// disabled path (interval 0) is a single branch and allocates
// nothing, pinned by an AllocsPerRun test.

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

// finalize fills the derived fields shared by both walks.
func (s *ShapeProfile) finalize() {
	for v, n := range s.NodesPerLevel {
		s.Nodes += n
		s.Edges += s.EdgesPerLevel[v]
		if n > s.MaxLevelNodes {
			s.MaxLevelNodes = n
			s.WidestLevel = v
		}
	}
	if s.Nodes > 0 {
		s.SharingFactor = s.TreeNodes / float64(s.Nodes)
	}
}

// ShapeV profiles a vector diagram. The walk is read-only and costs
// O(nodes); it allocates the per-level slices and a path-count map,
// so sample it at a stride (MaybeShapeV) on hot paths.
func (p *Pkg) ShapeV(e VEdge) ShapeProfile {
	p.checkOpen()
	s := ShapeProfile{
		Kind:          "vector",
		Levels:        p.nqubits,
		NodesPerLevel: make([]int, p.nqubits),
		EdgesPerLevel: make([]int, p.nqubits),
		WeightHist:    make([]int, ShapeWeightBuckets),
		UTLoad:        make([]float64, p.nqubits),
	}
	for v := range p.vUnique {
		if b := len(p.vUnique[v].buckets); b > 0 {
			s.UTLoad[v] = float64(p.vUnique[v].count) / float64(b)
		}
	}
	if e.IsTerminal() {
		if e.W != 0 {
			s.Edges = 1
			s.WeightHist[shapeWeightBucket(cmplx.Abs(e.W))]++
		}
		return s
	}
	// Group the nodes by level; quasi-reduction puts every non-zero
	// child of a level-v node exactly at v-1, so a top-down sweep of
	// the level groups propagates path counts in one pass.
	byLevel := make([][]*VNode, p.nqubits)
	visitV(e.N, func(n *VNode) {
		byLevel[n.V] = append(byLevel[n.V], n)
		s.NodesPerLevel[n.V]++
		for i := range n.E {
			if c := n.E[i]; !c.IsZero() {
				s.EdgesPerLevel[n.V]++
				s.WeightHist[shapeWeightBucket(cmplx.Abs(c.W))]++
			}
		}
	})
	s.Edges++ // the root edge
	s.WeightHist[shapeWeightBucket(cmplx.Abs(e.W))]++
	paths := make(map[*VNode]float64, s.nodesTotal())
	paths[e.N] = 1
	for v := p.nqubits - 1; v >= 0; v-- {
		for _, n := range byLevel[v] {
			pn := paths[n]
			s.TreeNodes += pn
			for i := range n.E {
				if c := n.E[i]; !c.IsZero() && !c.IsTerminal() {
					paths[c.N] += pn
				}
			}
		}
	}
	s.finalize()
	return s
}

// ShapeM profiles a matrix diagram, additionally measuring the
// identity-padding fraction against the canonical identity chain.
// Looking the chain up interns it if the current generation has not
// built one yet — a handful of unique-table hits for any diagram that
// actually contains identity blocks, since canonicity already forced
// those blocks onto the chain nodes.
func (p *Pkg) ShapeM(e MEdge) ShapeProfile {
	p.checkOpen()
	s := ShapeProfile{
		Kind:          "matrix",
		Levels:        p.nqubits,
		NodesPerLevel: make([]int, p.nqubits),
		EdgesPerLevel: make([]int, p.nqubits),
		WeightHist:    make([]int, ShapeWeightBuckets),
		UTLoad:        make([]float64, p.nqubits),
	}
	for v := range p.mUnique {
		if b := len(p.mUnique[v].buckets); b > 0 {
			s.UTLoad[v] = float64(p.mUnique[v].count) / float64(b)
		}
	}
	if e.IsTerminal() {
		if e.W != 0 {
			s.Edges = 1
			s.WeightHist[shapeWeightBucket(cmplx.Abs(e.W))]++
		}
		return s
	}
	if p.nqubits > 0 {
		p.identNode(0) // ensure the chain is current before the walk
	}
	byLevel := make([][]*MNode, p.nqubits)
	visitM(e.N, func(n *MNode) {
		byLevel[n.V] = append(byLevel[n.V], n)
		s.NodesPerLevel[n.V]++
		for i := range n.E {
			if c := n.E[i]; !c.IsZero() {
				s.EdgesPerLevel[n.V]++
				s.WeightHist[shapeWeightBucket(cmplx.Abs(c.W))]++
			}
		}
	})
	s.Edges++
	s.WeightHist[shapeWeightBucket(cmplx.Abs(e.W))]++
	paths := make(map[*MNode]float64, s.nodesTotal())
	paths[e.N] = 1
	var identTree float64
	for v := p.nqubits - 1; v >= 0; v-- {
		for _, n := range byLevel[v] {
			pn := paths[n]
			s.TreeNodes += pn
			if n == p.identNodes[v] {
				identTree += pn
			}
			for i := range n.E {
				if c := n.E[i]; !c.IsZero() && !c.IsTerminal() {
					paths[c.N] += pn
				}
			}
		}
	}
	if s.TreeNodes > 0 {
		s.IdentityFraction = identTree / s.TreeNodes
	}
	s.finalize()
	return s
}

// nodesTotal sums NodesPerLevel before finalize has run.
func (s *ShapeProfile) nodesTotal() int {
	t := 0
	for _, n := range s.NodesPerLevel {
		t += n
	}
	return t
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

// ShapeInterval returns the current sampling stride.
func (p *Pkg) ShapeInterval() int { return p.shapeEvery }

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
// the stride — callers use it to force a sample at session
// boundaries.
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
