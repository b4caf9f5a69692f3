package dd

import (
	"math"
	"testing"
)

func histSum(h []int) int {
	t := 0
	for _, c := range h {
		t += c
	}
	return t
}

// TestShapeVBell pins the per-level occupancy, edge counts, and
// sharing factor of the Bell state against hand-computed values.
func TestShapeVBell(t *testing.T) {
	p := New(2)
	e := p.BasisState(0)
	e = p.ApplyGate(e, gateH, 0)
	e = p.ApplyGate(e, gateX, 1, Control{Qubit: 0})
	s := p.ShapeV(e)

	if s.Kind != "vector" || s.Levels != 2 {
		t.Fatalf("kind/levels = %s/%d, want vector/2", s.Kind, s.Levels)
	}
	// (|00⟩+|11⟩)/√2: one node at the top level, two distinct basis
	// branches below — no sharing possible.
	if s.Nodes != 3 || s.NodesPerLevel[1] != 1 || s.NodesPerLevel[0] != 2 {
		t.Fatalf("nodes = %d per-level %v, want 3 with [2 1]", s.Nodes, s.NodesPerLevel)
	}
	// Root edge + 2 out of the top node + 1 out of each basis node.
	if s.Edges != 5 {
		t.Fatalf("edges = %d, want 5", s.Edges)
	}
	if s.TreeNodes != 3 || s.SharingFactor != 1 {
		t.Fatalf("tree/sharing = %g/%g, want 3/1", s.TreeNodes, s.SharingFactor)
	}
	if s.MaxLevelNodes != 2 || s.WidestLevel != 0 {
		t.Fatalf("widest = %d@%d, want 2@0", s.MaxLevelNodes, s.WidestLevel)
	}
	if s.IdentityFraction != 0 {
		t.Fatalf("vector profile has identity fraction %g", s.IdentityFraction)
	}
	if got := histSum(s.WeightHist); got != s.Edges {
		t.Fatalf("weight histogram counts %d edges, want %d", got, s.Edges)
	}
}

// TestShapeVUniform checks the sharing factor on the maximally shared
// uniform superposition: H⊗n yields one node per level but a
// decision tree of 2^n−1 nodes.
func TestShapeVUniform(t *testing.T) {
	const n = 4
	p := New(n)
	e := p.BasisState(0)
	for q := 0; q < n; q++ {
		e = p.ApplyGate(e, gateH, q)
	}
	s := p.ShapeV(e)
	if s.Nodes != n {
		t.Fatalf("nodes = %d, want %d", s.Nodes, n)
	}
	if want := float64(int(1)<<n - 1); s.TreeNodes != want {
		t.Fatalf("tree nodes = %g, want %g", s.TreeNodes, want)
	}
	if want := float64(int(1)<<n-1) / n; math.Abs(s.SharingFactor-want) > 1e-12 {
		t.Fatalf("sharing = %g, want %g", s.SharingFactor, want)
	}
	// All 2n+1 non-zero edges carry magnitude 1/√2 scaled weights;
	// the histogram must account for every one of them.
	if got := histSum(s.WeightHist); got != s.Edges {
		t.Fatalf("weight histogram counts %d edges, want %d", got, s.Edges)
	}
}

// TestShapeMIdentity: the canonical identity diagram is pure padding.
func TestShapeMIdentity(t *testing.T) {
	p := New(3)
	s := p.ShapeM(p.Ident())
	if s.Kind != "matrix" || s.Nodes != 3 {
		t.Fatalf("kind/nodes = %s/%d, want matrix/3", s.Kind, s.Nodes)
	}
	if s.IdentityFraction != 1 {
		t.Fatalf("identity fraction = %g, want 1", s.IdentityFraction)
	}
	for v, n := range s.NodesPerLevel {
		if n != 1 {
			t.Fatalf("level %d holds %d nodes, want 1", v, n)
		}
	}
}

// TestShapeMIdentityPadding pins the padding fraction of X applied to
// the top qubit of a 3-qubit identity: the X node's two children are
// the canonical ident(1) chain node, so of the 7-node decision tree
// (1 + 2 + 4) the 6 below the root are identity padding.
func TestShapeMIdentityPadding(t *testing.T) {
	p := New(3)
	m := p.ApplyGateML(p.Ident(), gateX, 2)
	s := p.ShapeM(m)
	if s.Nodes != 3 {
		t.Fatalf("nodes = %d, want 3", s.Nodes)
	}
	if want := 6.0 / 7.0; math.Abs(s.IdentityFraction-want) > 1e-12 {
		t.Fatalf("identity fraction = %g, want %g", s.IdentityFraction, want)
	}
	if s.TreeNodes != 7 {
		t.Fatalf("tree nodes = %g, want 7", s.TreeNodes)
	}
	// X on the lowest qubit leaves no canonical identity chain below
	// it: padding above the target is structural, not chain-shared.
	s = p.ShapeM(p.ApplyGateML(p.Ident(), gateX, 0))
	if s.IdentityFraction != 0 {
		t.Fatalf("low-target padding fraction = %g, want 0", s.IdentityFraction)
	}
}

// TestShapeSampling exercises the stride logic and the published
// snapshot lifecycle.
func TestShapeSampling(t *testing.T) {
	p := New(2)
	e := p.BasisState(0)
	if p.LastShape() != nil {
		t.Fatal("fresh package already has a published shape")
	}
	p.SetShapeInterval(2)
	took := 0
	for i := 0; i < 5; i++ {
		if p.MaybeShapeV(e) {
			took++
		}
	}
	if took != 2 {
		t.Fatalf("interval 2 over 5 steps took %d profiles, want 2", took)
	}
	last := p.LastShape()
	if last == nil || last.Seq != 2 || last.Kind != "vector" {
		t.Fatalf("published snapshot = %+v, want seq 2 vector", last)
	}
	forced := p.PublishShapeM(p.Ident())
	if forced.Seq != 3 {
		t.Fatalf("forced publish seq = %d, want 3", forced.Seq)
	}
	if got := p.LastShape(); got == nil || got.Kind != "matrix" || got.Seq != 3 {
		t.Fatalf("snapshot after forced publish = %+v", got)
	}
	p.SetShapeInterval(0)
	if p.MaybeShapeV(e) || p.MaybeShapeM(p.Ident()) {
		t.Fatal("disabled profiler still sampled")
	}
}

// TestShapeDisabledAllocs pins the 0-alloc contract of the disabled
// sampling path: every simulator step pays this check.
func TestShapeDisabledAllocs(t *testing.T) {
	p := New(4)
	e := p.BasisState(5)
	m := p.Ident()
	if avg := testing.AllocsPerRun(1000, func() {
		p.MaybeShapeV(e)
		p.MaybeShapeM(m)
	}); avg != 0 {
		t.Fatalf("disabled shape sampling allocates %v per step, want 0", avg)
	}
}

// TestShapeZeroAndTerminal covers degenerate roots.
func TestShapeZeroAndTerminal(t *testing.T) {
	p := New(2)
	s := p.ShapeV(VZero())
	if s.Nodes != 0 || s.Edges != 0 || histSum(s.WeightHist) != 0 {
		t.Fatalf("zero vector profile = %+v", s)
	}
	s = p.ShapeM(MOne())
	if s.Nodes != 0 || s.Edges != 1 || histSum(s.WeightHist) != 1 {
		t.Fatalf("terminal matrix profile = %+v", s)
	}
}

// TestShapeWeightBucketBounds sanity-checks the self-describing
// bucket bounds against the bucketing function.
func TestShapeWeightBucketBounds(t *testing.T) {
	for k := 0; k < ShapeWeightBuckets; k++ {
		lo, hi := ShapeWeightBucketBounds(k)
		if lo >= hi {
			t.Fatalf("bucket %d bounds [%g,%g) empty", k, lo, hi)
		}
		probe := lo * 1.5
		if k == 0 {
			probe = hi / 2
		}
		if k == ShapeWeightBuckets-1 {
			probe = lo * 2
		}
		if got := shapeWeightBucket(probe); got != k {
			t.Fatalf("magnitude %g lands in bucket %d, want %d", probe, got, k)
		}
	}
	if got := shapeWeightBucket(1); got != shapeWeightBucketBias {
		t.Fatalf("unit magnitude lands in bucket %d, want %d", got, shapeWeightBucketBias)
	}
}

// TestShapeWarmAllocs pins a warm profile's allocations to the
// profile's own slices: NodesPerLevel, EdgesPerLevel, WeightHist and
// UTLoad. The walk and its per-node sums live in the pooled walkers.
func TestShapeWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled walkers at random")
	}
	const n = 8
	p := New(n)
	e := p.BasisState(0)
	m := p.Ident()
	for q := 0; q < n; q++ {
		e = p.ApplyGate(e, gateH, q)
		e = p.ApplyGate(e, gateT, (q+1)%n, Control{Qubit: q})
		m = p.ApplyGateML(m, gateH, q)
	}
	const own = 4
	if avg := testing.AllocsPerRun(100, func() { p.ShapeV(e) }); avg != own {
		t.Errorf("warm ShapeV allocates %v times, want %d", avg, own)
	}
	if avg := testing.AllocsPerRun(100, func() { p.ShapeM(m) }); avg != own {
		t.Errorf("warm ShapeM allocates %v times, want %d", avg, own)
	}
}
