package dd

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"testing"
)

// A frozen copy of the profile walks ShapeV and ShapeM ran before they
// became passes over the ordered walk of flat.go: a visit grouped the
// nodes by level, and a top-down sweep of the groups summed the
// root-to-node path counts in a per-node map. TestShapeMatchesReference
// holds the flat passes to these results bit for bit.

func refShapeV(p *Pkg, e VEdge) ShapeProfile {
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
	byLevel := make([][]*VNode, p.nqubits)
	nodes := 0
	visitV(e.N, func(n *VNode) {
		byLevel[n.V] = append(byLevel[n.V], n)
		s.NodesPerLevel[n.V]++
		nodes++
		for i := range n.E {
			if c := n.E[i]; !c.IsZero() {
				s.EdgesPerLevel[n.V]++
				s.WeightHist[shapeWeightBucket(cmplx.Abs(c.W))]++
			}
		}
	})
	s.Edges++
	s.WeightHist[shapeWeightBucket(cmplx.Abs(e.W))]++
	paths := make(map[*VNode]float64, nodes)
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
	refFinalize(&s)
	return s
}

func refShapeM(p *Pkg, e MEdge) ShapeProfile {
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
		p.identNode(0)
	}
	byLevel := make([][]*MNode, p.nqubits)
	nodes := 0
	visitM(e.N, func(n *MNode) {
		byLevel[n.V] = append(byLevel[n.V], n)
		s.NodesPerLevel[n.V]++
		nodes++
		for i := range n.E {
			if c := n.E[i]; !c.IsZero() {
				s.EdgesPerLevel[n.V]++
				s.WeightHist[shapeWeightBucket(cmplx.Abs(c.W))]++
			}
		}
	})
	s.Edges++
	s.WeightHist[shapeWeightBucket(cmplx.Abs(e.W))]++
	paths := make(map[*MNode]float64, nodes)
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
	refFinalize(&s)
	return s
}

func refFinalize(s *ShapeProfile) {
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

// matrixAmps draws a random 2^n×2^n matrix: dense ones have every
// entry nonzero, sparse ones about one in five, with at least one.
func matrixAmps(rng *rand.Rand, n int, dense bool) [][]complex128 {
	dim := 1 << uint(n)
	rows := make([][]complex128, dim)
	for i := range rows {
		rows[i] = make([]complex128, dim)
		for j := range rows[i] {
			if dense || rng.Float64() < 0.2 {
				rows[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
	}
	rows[rng.Intn(dim)][rng.Intn(dim)] = complex(rng.NormFloat64(), 1)
	return rows
}

// shapeGate is one gate of a random operator circuit.
type shapeGate struct {
	u      GateMatrix
	target int
	ctl    []Control
}

// shapeCircuit draws gates on the top width qubits of an n-qubit
// register: random unitaries make a dense operator, X gates a sparse
// permutation, and a width below n leaves the identity chain below.
func shapeCircuit(rng *rand.Rand, n, width, gates int, unitary bool) []shapeGate {
	off := n - width
	out := make([]shapeGate, gates)
	for i := range out {
		g := shapeGate{u: gateX, target: rng.Intn(width)}
		if unitary {
			g.u = randGateMatrix(rng)
		}
		g.ctl = randControls(rng, width, g.target)
		g.target += off
		for j := range g.ctl {
			g.ctl[j].Qubit += off
		}
		out[i] = g
	}
	return out
}

// TestShapeMatchesReference compares ShapeV and ShapeM with the frozen
// walks on random dense and sparse vectors and matrices of 3–10
// qubits, on identity-padded operators, and on terminal and zero
// edges. Each side builds the diagram on a fresh package, so neither
// sees the identity chain or table entries the other interned; every
// field of the profiles must agree bit for bit.
func TestShapeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2107))
	same := func(name string, got, want ShapeProfile) {
		t.Helper()
		if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
			t.Fatalf("%s:\n got %s\nwant %s", name, g, w)
		}
	}
	vector := func(name string, n int, build func(p *Pkg) VEdge) {
		t.Helper()
		p, q := New(n), New(n)
		same(name, p.ShapeV(build(p)), refShapeV(q, build(q)))
	}
	padded := 0
	matrix := func(name string, n int, build func(p *Pkg) MEdge) {
		t.Helper()
		p, q := New(n), New(n)
		got := p.ShapeM(build(p))
		same(name, got, refShapeM(q, build(q)))
		if got.IdentityFraction > 0 && got.IdentityFraction < 1 {
			padded++
		}
	}
	for n := 3; n <= 10; n++ {
		for _, dense := range []bool{true, false} {
			amps := projectionAmps(rng, n, dense)
			vector(fmt.Sprintf("vector n=%d dense=%v", n, dense), n, func(p *Pkg) VEdge {
				e, err := p.FromVector(amps)
				if err != nil {
					t.Fatal(err)
				}
				return e
			})
			if n <= 6 {
				rows := matrixAmps(rng, n, dense)
				matrix(fmt.Sprintf("matrix n=%d dense=%v", n, dense), n, func(p *Pkg) MEdge {
					m, err := p.FromMatrix(rows)
					if err != nil {
						t.Fatal(err)
					}
					return m
				})
			}
			for _, width := range []int{n, n - 2, 1} {
				gates := shapeCircuit(rng, n, width, 4*width, dense)
				matrix(fmt.Sprintf("operator n=%d width=%d unitary=%v", n, width, dense), n, func(p *Pkg) MEdge {
					m := p.Ident()
					for _, g := range gates {
						m = p.ApplyGateML(m, g.u, g.target, g.ctl...)
					}
					return m
				})
			}
		}
		vector(fmt.Sprintf("basis n=%d", n), n, func(p *Pkg) VEdge { return p.BasisState(5) })
		matrix(fmt.Sprintf("identity n=%d", n), n, func(p *Pkg) MEdge { return p.Ident() })
	}
	vector("zero vector", 3, func(*Pkg) VEdge { return VZero() })
	vector("terminal vector", 3, func(*Pkg) VEdge { return VEdge{W: 0.5, N: vTerminal} })
	matrix("zero matrix", 3, func(*Pkg) MEdge { return MZero() })
	matrix("terminal matrix", 3, func(*Pkg) MEdge { return MOne() })
	if padded == 0 {
		t.Fatal("no operator was partly identity padding; the grid must cover it")
	}
	t.Logf("%d operators partly identity padding", padded)
}
