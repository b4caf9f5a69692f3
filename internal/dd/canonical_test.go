package dd

import (
	"math"
	"math/rand"
	"testing"

	"quantumdd/internal/qc"
)

// TestMakeNodeNegligibleWeightIsZero checks that a candidate node
// whose weights all lie within the tolerance of zero is the zero edge.
// Such a node used to be interned with a top weight that
// canonicalized to 0, which gave a zero weight on a non-terminal edge
// that IsZero did not recognize.
func TestMakeNodeNegligibleWeightIsZero(t *testing.T) {
	p := New(2)
	n := p.makeVNode(0, [2]VEdge{VOne(), VZero()}).N
	if e := p.makeVNode(1, [2]VEdge{{W: 1e-11, N: n}, VZero()}); !e.IsZero() {
		t.Fatalf("makeVNode with a weight of 1e-11 = %+v, want the zero edge", e)
	}
	m := p.makeMNode(0, [4]MEdge{MOne(), MZero(), MZero(), MOne()}).N
	if e := p.makeMNode(1, [4]MEdge{{W: 0.8e-10 + 0.8e-10i, N: m}, MZero(), MZero(), MZero()}); !e.IsZero() {
		t.Fatalf("makeMNode with a weight of 0.8e-10+0.8e-10i = %+v, want the zero edge", e)
	}
}

// checkRoot fails the test unless w, the weight of a root edge that
// an exported operation returned, is canonical: the complex table
// already holds it bit for bit. A zero weight must sit on the
// terminal, and a terminal root of a diagram over at least one qubit
// must have weight zero.
func checkRoot(t *testing.T, p *Pkg, op string, w complex128, terminal bool) {
	t.Helper()
	size := p.cn.Size()
	c := p.cn.Lookup(w)
	same := math.Float64bits(real(c)) == math.Float64bits(real(w)) &&
		math.Float64bits(imag(c)) == math.Float64bits(imag(w))
	if !same || p.cn.Size() != size {
		t.Fatalf("%s: root weight %v is not canonical, the complex table answers %v", op, w, c)
	}
	if (w == 0) != terminal {
		t.Fatalf("%s: root weight %v, terminal %v", op, w, terminal)
	}
}

// TestExportedRootsCanonical is the property behind canonicalizing
// only at the root: every exported operation that returns a diagram,
// on random operands over 1–5 qubits, returns a canonical root edge.
func TestExportedRootsCanonical(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for round := 0; round < 6; round++ {
			rng := rand.New(rand.NewSource(int64(100*n + round)))
			p := New(n)
			v := func(op string, e VEdge) VEdge {
				t.Helper()
				checkRoot(t, p, op, e.W, e.N == vTerminal)
				return e
			}
			m := func(op string, e MEdge) MEdge {
				t.Helper()
				checkRoot(t, p, op, e.W, e.N == mTerminal)
				return e
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			a := v("FromVector", randState(t, p, rng, n))
			b := v("FromVector", randState(t, p, rng, n))
			ma := m("FromMatrix", randMatrixDD(t, p, rng, n))
			mb := m("FromMatrix", randMatrixDD(t, p, rng, n))
			u := randGateMatrix(rng)
			target := rng.Intn(n)
			ctl := randControls(rng, n, target)

			tiny := make([]complex128, 1<<uint(n))
			tiny[rng.Intn(len(tiny))] = 0.8e-10 + 0.8e-10i
			e, err := p.FromVector(tiny)
			must(err)
			v("FromVector (negligible)", e)

			v("ZeroState", p.ZeroState())
			v("BasisState", p.BasisState(rng.Int63n(1<<uint(n))))
			v("AddV", p.AddV(a, b))
			v("AddV (cancelling)", p.AddV(a, VEdge{W: -a.W, N: a.N}))
			v("MultMV", p.MultMV(ma, a))
			v("ApplyGate", p.ApplyGate(a, u, target, ctl...))
			e, err = p.ApplyGateChecked(b, u, target, ctl...)
			must(err)
			v("ApplyGateChecked", e)
			if p.ProbOne(a, target) > 1e-6 {
				e, err = p.Collapse(a, target, 1)
				must(err)
				v("Collapse", e)
				e, err = p.ResetTo(a, target, 1)
				must(err)
				v("ResetTo", e)
			}
			e, _, _, _ = p.Approximate(a, 0.05)
			v("Approximate", e)
			e, err = p.DecodeVectorBinary(p.AppendVectorBinary(nil, a))
			must(err)
			v("DecodeVectorBinary", e)

			m("Ident", p.Ident())
			m("MakeGateDD", p.MakeGateDD(u, target, ctl...))
			m("AddM", p.AddM(ma, mb))
			m("AddM (cancelling)", p.AddM(ma, MEdge{W: -ma.W, N: ma.N}))
			m("MultMM", p.MultMM(ma, mb))
			m("ConjTranspose", p.ConjTranspose(ma))
			m("ApplyGateML", p.ApplyGateML(ma, u, target, ctl...))
			m("ApplyGateMR", p.ApplyGateMR(mb, u, target, ctl...))
			me, err := p.ApplyGateMLChecked(mb, u, target, ctl...)
			must(err)
			m("ApplyGateMLChecked", me)
			me, err = p.ApplyGateMRChecked(ma, u, target, ctl...)
			must(err)
			m("ApplyGateMRChecked", me)
			me, err = p.MultMMChecked(mb, ma)
			must(err)
			m("MultMMChecked", me)
			me, err = p.DecodeMatrixBinary(p.AppendMatrixBinary(nil, ma))
			must(err)
			m("DecodeMatrixBinary", me)

			if n < 2 {
				continue
			}
			q := (target + 1 + rng.Intn(n-1)) % n
			v("ApplySwap", p.ApplySwap(a, target, q))
			m("MakeSwapDD", p.MakeSwapDD(target, q))
			swap := &qc.Op{Kind: qc.KindGate, Gate: qc.Swap, Targets: []int{target, q}}
			me, err = p.ApplyOpML(ma, swap)
			must(err)
			m("ApplyOpML (SWAP)", me)
			me, err = p.ApplyOpMR(ma, swap)
			must(err)
			m("ApplyOpMR (SWAP)", me)
			e, err = p.ReorderedState(b, rng.Perm(n))
			must(err)
			v("ReorderedState", e)

			// The Kron product of a sub-diagram spanning the n−k
			// levels above the bottom k with the identity below.
			k := 1 + rng.Intn(n-1)
			dim := 1 << uint(n-k)
			rows := make([][]complex128, dim)
			for i := range rows {
				rows[i] = make([]complex128, dim)
				for j := range rows[i] {
					rows[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
			}
			m("KronM", p.KronM(p.fromMatrix(rows, 0, 0, dim, n-k-1), p.identUpTo(k-1), k))
		}
	}
}
