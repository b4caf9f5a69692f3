package dd

import (
	"math/rand"
	"slices"
	"testing"
)

// TestOversizedWalkerNotPooled: a walker whose visited set outgrew
// maxPooledSlots is dropped on release, so the pool never pins a huge
// set, and a walker that is pooled comes back empty.
func TestOversizedWalkerNotPooled(t *testing.T) {
	p := New(6)
	state, err := p.FromVector(randomState(rand.New(rand.NewSource(1)), 6))
	if err != nil {
		t.Fatal(err)
	}
	big := &vWalker{set: make([]*VNode, 2*maxPooledSlots)}
	big.push(state.N)
	big.release()
	if w := vWalkerPool.Get().(*vWalker); w == big {
		t.Fatal("oversized vector walker returned to the pool")
	}

	var nodes []*VNode
	visitV(state.N, func(n *VNode) { nodes = append(nodes, n) })
	small := &vWalker{set: make([]*VNode, minWalkSlots)}
	for _, n := range nodes { // 63 nodes: the set grows past minWalkSlots
		small.push(n)
	}
	if len(small.used) != len(nodes) || len(small.set) == minWalkSlots {
		t.Fatalf("walker marked %d of %d nodes in %d slots", len(small.used), len(nodes), len(small.set))
	}
	small.release()
	if len(small.used) != 0 || len(small.stack) != 0 || slices.ContainsFunc(small.set, func(n *VNode) bool { return n != nil }) {
		t.Fatal("pooled vector walker not emptied")
	}

	u := randomUnitary(p, rand.New(rand.NewSource(2)), 30)
	bigM := &mWalker{set: make([]*MNode, 2*maxPooledSlots)}
	bigM.push(u.N)
	bigM.release()
	if w := mWalkerPool.Get().(*mWalker); w == bigM {
		t.Fatal("oversized matrix walker returned to the pool")
	}
	smallM := &mWalker{set: make([]*MNode, minWalkSlots)}
	smallM.push(u.N)
	smallM.release()
	if len(smallM.used) != 0 || len(smallM.stack) != 0 || slices.ContainsFunc(smallM.set, func(n *MNode) bool { return n != nil }) {
		t.Fatal("pooled matrix walker not emptied")
	}
}

// refVisitV is the map-based walk the hash-addressed walker replaced.
func refVisitV(root *VNode, visit func(*VNode)) {
	seen := map[*VNode]bool{}
	var stack []*VNode
	push := func(n *VNode) {
		if n != vTerminal && !seen[n] {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	push(root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit(n)
		push(n.E[0].N)
		push(n.E[1].N)
	}
}

func refVisitM(root *MNode, visit func(*MNode)) {
	seen := map[*MNode]bool{}
	var stack []*MNode
	push := func(n *MNode) {
		if n != mTerminal && !seen[n] {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	push(root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit(n)
		for i := range n.E {
			push(n.E[i].N)
		}
	}
}

// levelHist histograms visited nodes per level, like SizeByLevelV/M.
func levelHist[N any](nq int, walk func(func(*N)), level func(*N) Var) []int {
	h := make([]int, nq)
	walk(func(n *N) { h[level(n)]++ })
	return h
}

// TestVisitMatchesMapReference: the hash-addressed walkers visit the
// same nodes in the same order as a map-based walk, and the per-level
// histograms agree, on random vector and matrix diagrams from a few
// nodes up to sets that grow several times.
func TestVisitMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(12)
		p := New(n)
		state, err := p.FromVector(randomState(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		var got, want []*VNode
		visitV(state.N, func(v *VNode) { got = append(got, v) })
		refVisitV(state.N, func(v *VNode) { want = append(want, v) })
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: visitV order differs from the map walk (%d vs %d nodes)", trial, len(got), len(want))
		}
		if SizeV(state) != len(want) {
			t.Fatalf("trial %d: SizeV = %d, want %d", trial, SizeV(state), len(want))
		}
		wantHist := levelHist(n, func(f func(*VNode)) { refVisitV(state.N, f) }, func(v *VNode) Var { return v.V })
		if h := p.SizeByLevelV(state); !slices.Equal(h, wantHist) {
			t.Fatalf("trial %d: SizeByLevelV = %v, want %v", trial, h, wantHist)
		}

		u := randomUnitary(p, rng, 5+rng.Intn(40))
		var gotM, wantM []*MNode
		visitM(u.N, func(m *MNode) { gotM = append(gotM, m) })
		refVisitM(u.N, func(m *MNode) { wantM = append(wantM, m) })
		if !slices.Equal(gotM, wantM) {
			t.Fatalf("trial %d: visitM order differs from the map walk (%d vs %d nodes)", trial, len(gotM), len(wantM))
		}
		if SizeM(u) != len(wantM) {
			t.Fatalf("trial %d: SizeM = %d, want %d", trial, SizeM(u), len(wantM))
		}
		wantHistM := levelHist(n, func(f func(*MNode)) { refVisitM(u.N, f) }, func(m *MNode) Var { return m.V })
		if h := p.SizeByLevelM(u); !slices.Equal(h, wantHistM) {
			t.Fatalf("trial %d: SizeByLevelM = %v, want %v", trial, h, wantHistM)
		}
	}
}
