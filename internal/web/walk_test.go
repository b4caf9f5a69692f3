package web

import (
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/verify"
	"quantumdd/internal/vis"
)

// The references below are the map-based walks that the single
// ordered walk (dd.FlattenV/FlattenM) replaced, kept to check it: the
// renderer's graph extraction, ProbOne, PathCount and SizeByLevel.

func refLabel(v int) string { return "q" + strconv.Itoa(v) }

func refProb(w complex128) float64 { return real(w)*real(w) + imag(w)*imag(w) }

func refTerminal(g *vis.Graph) vis.NodeID {
	id := vis.NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, vis.Node{ID: id, Level: -1, Label: "1", Terminal: true})
	return id
}

func refFromVector(e dd.VEdge) *vis.Graph {
	const noNode = vis.NodeID(-1)
	g := &vis.Graph{Kind: vis.KindVector, RootWeight: e.W, Root: noNode}
	if e.IsTerminal() {
		g.Root = refTerminal(g)
		return g
	}
	ids := map[*dd.VNode]vis.NodeID{}
	term := noNode
	var probs []float64
	var walk func(n *dd.VNode) vis.NodeID
	walk = func(n *dd.VNode) vis.NodeID {
		if id, ok := ids[n]; ok {
			return id
		}
		id := vis.NodeID(len(g.Nodes))
		g.Nodes = append(g.Nodes, vis.Node{ID: id, Level: n.V, Label: refLabel(n.V)})
		probs = append(probs, refProb(n.E[0].W), refProb(n.E[1].W))
		ids[n] = id
		g.Levels = max(g.Levels, n.V+1)
		for port, c := range n.E {
			switch {
			case c.W == 0:
				g.Edges = append(g.Edges, vis.Edge{From: id, To: noNode, Port: uint8(port), NPorts: 2, Zero: true})
			case c.IsTerminal():
				if term == noNode {
					term = refTerminal(g)
				}
				g.Edges = append(g.Edges, vis.Edge{From: id, To: term, Port: uint8(port), NPorts: 2, Weight: c.W})
			default:
				child := walk(c.N)
				g.Edges = append(g.Edges, vis.Edge{From: id, To: child, Port: uint8(port), NPorts: 2, Weight: c.W})
			}
		}
		return id
	}
	g.Root = walk(e.N)
	for i := range g.Nodes {
		if n := &g.Nodes[i]; !n.Terminal {
			n.Probs, probs = probs[:2:2], probs[2:]
		}
	}
	return g
}

func refFromMatrix(e dd.MEdge) *vis.Graph {
	const noNode = vis.NodeID(-1)
	g := &vis.Graph{Kind: vis.KindMatrix, RootWeight: e.W, Root: noNode}
	if e.IsTerminal() {
		g.Root = refTerminal(g)
		return g
	}
	ids := map[*dd.MNode]vis.NodeID{}
	term := noNode
	var walk func(n *dd.MNode) vis.NodeID
	walk = func(n *dd.MNode) vis.NodeID {
		if id, ok := ids[n]; ok {
			return id
		}
		id := vis.NodeID(len(g.Nodes))
		g.Nodes = append(g.Nodes, vis.Node{ID: id, Level: n.V, Label: refLabel(n.V)})
		ids[n] = id
		g.Levels = max(g.Levels, n.V+1)
		for port, c := range n.E {
			switch {
			case c.W == 0:
				g.Edges = append(g.Edges, vis.Edge{From: id, To: noNode, Port: uint8(port), NPorts: 4, Zero: true})
			case c.IsTerminal():
				if term == noNode {
					term = refTerminal(g)
				}
				g.Edges = append(g.Edges, vis.Edge{From: id, To: term, Port: uint8(port), NPorts: 4, Weight: c.W})
			default:
				child := walk(c.N)
				g.Edges = append(g.Edges, vis.Edge{From: id, To: child, Port: uint8(port), NPorts: 4, Weight: c.W})
			}
		}
		return id
	}
	g.Root = walk(e.N)
	return g
}

func refProbOne(e dd.VEdge, q int) float64 {
	memo := map[*dd.VNode]float64{}
	var walk func(e dd.VEdge) float64
	walk = func(e dd.VEdge) float64 {
		if e.IsTerminal() {
			return 0
		}
		n := e.N
		if n.V == q {
			return refProb(n.E[1].W)
		}
		if r, ok := memo[n]; ok {
			return r
		}
		var sum float64
		for i := 0; i < 2; i++ {
			m := refProb(n.E[i].W)
			if m == 0 {
				continue
			}
			sum += m * walk(n.E[i])
		}
		memo[n] = sum
		return sum
	}
	return walk(e)
}

func refPathCount(e dd.VEdge) int64 {
	if e.IsZero() {
		return 0
	}
	memo := map[*dd.VNode]int64{}
	var walk func(e dd.VEdge) int64
	walk = func(e dd.VEdge) int64 {
		if e.IsTerminal() {
			return 1
		}
		if c, ok := memo[e.N]; ok {
			return c
		}
		var c int64
		for _, k := range e.N.E {
			if k.W != 0 {
				c += walk(k)
			}
		}
		memo[e.N] = c
		return c
	}
	return walk(e)
}

func refSizeByLevelV(nq int, e dd.VEdge) []int {
	counts := make([]int, nq)
	seen := map[*dd.VNode]bool{}
	var walk func(e dd.VEdge)
	walk = func(e dd.VEdge) {
		if e.IsTerminal() || seen[e.N] {
			return
		}
		seen[e.N] = true
		counts[e.N.V]++
		for _, k := range e.N.E {
			walk(k)
		}
	}
	walk(e)
	return counts
}

func refSizeByLevelM(nq int, e dd.MEdge) []int {
	counts := make([]int, nq)
	seen := map[*dd.MNode]bool{}
	var walk func(e dd.MEdge)
	walk = func(e dd.MEdge) {
		if e.IsTerminal() || seen[e.N] {
			return
		}
		seen[e.N] = true
		counts[e.N.V]++
		for _, k := range e.N.E {
			walk(k)
		}
	}
	walk(e)
	return counts
}

// sumInts is the node count of a level histogram.
func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// checkVector compares every walk-based view of the state e against
// the references; when frame is set, also the frame simFrame built.
func checkVector(t *testing.T, name string, p *dd.Pkg, e dd.VEdge, frame *Frame) {
	t.Helper()
	want := refFromVector(e)
	if got := vis.FromVector(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: FromVector differs from the map walk:\n got %+v\nwant %+v", name, got, want)
	}
	hist := refSizeByLevelV(p.Qubits(), e)
	if got := p.SizeByLevelV(e); !reflect.DeepEqual(got, hist) {
		t.Fatalf("%s: SizeByLevelV = %v, want %v", name, got, hist)
	}
	if got, want := dd.SizeV(e), sumInts(hist); got != want {
		t.Fatalf("%s: SizeV = %d, references count %d", name, got, want)
	}
	paths := refPathCount(e)
	if got := dd.PathCount(e); got != paths {
		t.Fatalf("%s: PathCount = %d, want %d", name, got, paths)
	}
	var probs []float64
	if !e.IsZero() {
		probs = make([]float64, p.Qubits())
		for q := range probs {
			probs[q] = refProbOne(e, q)
			if got := p.ProbOne(e, q); got != probs[q] {
				t.Fatalf("%s: ProbOne(%d) = %v, want %v", name, q, got, probs[q])
			}
		}
		if got := p.Probabilities(e); !reflect.DeepEqual(got, probs) {
			t.Fatalf("%s: Probabilities = %v, want %v", name, got, probs)
		}
	}
	if frame == nil {
		return
	}
	if !reflect.DeepEqual(frame.graph, want) {
		t.Fatalf("%s: frame graph differs from the map walk", name)
	}
	if frame.Nodes != sumInts(hist) || frame.PathCount != paths ||
		!reflect.DeepEqual(frame.LevelHist, hist) || !reflect.DeepEqual(frame.Probs, probs) {
		t.Fatalf("%s: frame stats nodes %d paths %d hist %v probs %v, want %d %d %v %v", name,
			frame.Nodes, frame.PathCount, frame.LevelHist, frame.Probs, sumInts(hist), paths, hist, probs)
	}
}

// checkMatrix is checkVector for operators.
func checkMatrix(t *testing.T, name string, p *dd.Pkg, e dd.MEdge, frame *Frame) {
	t.Helper()
	want := refFromMatrix(e)
	if got := vis.FromMatrix(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: FromMatrix differs from the map walk:\n got %+v\nwant %+v", name, got, want)
	}
	hist := refSizeByLevelM(p.Qubits(), e)
	if got := p.SizeByLevelM(e); !reflect.DeepEqual(got, hist) {
		t.Fatalf("%s: SizeByLevelM = %v, want %v", name, got, hist)
	}
	if got, want := dd.SizeM(e), sumInts(hist); got != want {
		t.Fatalf("%s: SizeM = %d, references count %d", name, got, want)
	}
	if frame == nil {
		return
	}
	if !reflect.DeepEqual(frame.graph, want) {
		t.Fatalf("%s: frame graph differs from the map walk", name)
	}
	if frame.Nodes != sumInts(hist) || !reflect.DeepEqual(frame.LevelHist, hist) || frame.Probs != nil || frame.PathCount != 0 {
		t.Fatalf("%s: frame stats nodes %d hist %v, want %d %v", name, frame.Nodes, frame.LevelHist, sumInts(hist), hist)
	}
}

// randomAmps draws a 2^n amplitude vector whose entries are zero with
// probability pZero and whose halves sometimes repeat, so the diagram
// has zero stubs, shared children and terminal edges.
func randomAmps(rng *rand.Rand, n int, pZero float64) []complex128 {
	amps := make([]complex128, 1<<n)
	for i := range amps {
		if rng.Float64() >= pZero {
			amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	if n > 1 && rng.Intn(3) == 0 {
		copy(amps[len(amps)/2:], amps[:len(amps)/2])
	}
	return amps
}

// loweredMCZ replaces each Z with three or more controls by H·MCX·H
// with the MCX as a Toffoli V-chain over clean ancillas above the
// circuit's qubits, as the functionality digests of internal/verify
// lower Grover's oracle.
func loweredMCZ(c *qc.Circuit) *qc.Circuit {
	anc := 0
	for _, op := range c.Ops {
		anc = max(anc, len(op.Controls)-2)
	}
	out := qc.New(c.NQubits+anc, c.NClbits)
	out.Name = c.Name + "_lowered"
	for _, op := range c.Ops {
		if op.Kind != qc.KindGate || op.Gate != qc.Z || len(op.Controls) < 3 {
			out.Ops = append(out.Ops, op)
			continue
		}
		ctl, t, m := op.Controls, op.Targets[0], len(op.Controls)
		flip := func() {
			for _, k := range ctl {
				if k.Neg {
					out.X(k.Qubit)
				}
			}
		}
		flip()
		out.H(t)
		a := c.NQubits
		out.CCX(ctl[0].Qubit, ctl[1].Qubit, a)
		for i := 2; i < m-1; i++ {
			out.CCX(ctl[i].Qubit, a+i-2, a+i-1)
		}
		out.CCX(ctl[m-1].Qubit, a+m-3, t)
		for i := m - 2; i >= 2; i-- {
			out.CCX(ctl[i].Qubit, a+i-2, a+i-1)
		}
		out.CCX(ctl[0].Qubit, ctl[1].Qubit, a)
		out.H(t)
		flip()
	}
	return out
}

// TestWalkMatchesMapReferences is the differential property test of
// the ordered walk: graphs must equal the map walk's field for field
// and in order, probabilities must compare ==, and path counts and
// level histograms must agree, on random states and operators, every
// built-in example frame, verification diagrams along a walk, and the
// functionality operators whose digests internal/verify pins.
func TestWalkMatchesMapReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for n := 1; n <= 8; n++ {
		p := dd.New(n)
		checkVector(t, "zero", p, dd.VZero(), nil)
		checkVector(t, "one", p, dd.VOne(), nil)
		checkMatrix(t, "zero", p, dd.MZero(), nil)
		checkMatrix(t, "one", p, dd.MOne(), nil)
		checkMatrix(t, "identity", p, p.Ident(), nil)
		for trial := 0; trial < 12; trial++ {
			name := "random state n=" + strconv.Itoa(n) + " #" + strconv.Itoa(trial)
			e, err := p.FromVector(randomAmps(rng, n, []float64{0, 0.3, 0.7, 0.95}[trial%4]))
			if err != nil {
				t.Fatal(err)
			}
			checkVector(t, name, p, e, nil)
			if n > 6 {
				continue
			}
			rows := make([][]complex128, 1<<n)
			for i := range rows {
				rows[i] = randomAmps(rng, n, []float64{0, 0.5, 0.9}[trial%3])
				if i%2 == 1 && trial%2 == 0 {
					copy(rows[i], rows[i-1])
				}
			}
			u, err := p.FromMatrix(rows)
			if err != nil {
				t.Fatal(err)
			}
			checkMatrix(t, "random operator n="+strconv.Itoa(n)+" #"+strconv.Itoa(trial), p, u, nil)
		}
	}

	for _, ex := range Examples() {
		circ, err := ParseCircuit(ex.Code, "")
		if err != nil {
			t.Fatal(err)
		}
		s := newSimSession(circ, ex.Code, "", 1, 0)
		for step := 0; ; step++ {
			name := ex.Name + " step " + strconv.Itoa(step)
			f := simFrame(s, vis.Style{}, "")
			checkVector(t, name, s.sim.Pkg(), s.sim.State(), &f)
			if s.sim.AtEnd() {
				break
			}
			if pc := s.pending(); pc != nil {
				if err := s.choose(step % 2); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.sim.StepForward(); err != nil {
				t.Fatal(err)
			}
		}
	}

	qft, err := qc.CompileNative(algorithms.QFT(4), qc.CompileOptions{EmitBarriers: true})
	if err != nil {
		t.Fatal(err)
	}
	grover := algorithms.Grover(3, 5)
	for _, pair := range [][2]*qc.Circuit{{algorithms.QFT(4), qft}, {grover, grover}} {
		v, err := newVerifySession(pair[0], pair[1], "", "", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; ; step++ {
			f := verifyFrame(v, vis.Style{}, "")
			checkMatrix(t, pair[0].Name+" verify step "+strconv.Itoa(step), v.m.Pkg(), v.m.X(), &f)
			side := "left"
			if step%3 == 2 {
				side = "right"
			}
			op, err := v.stepSide(context.Background(), side)
			if err != nil {
				t.Fatal(err)
			}
			if op == nil {
				if op, err = v.stepSide(context.Background(), "right"); err != nil {
					t.Fatal(err)
				}
				if op == nil {
					break
				}
			}
		}
	}

	inv, err := algorithms.QFT(5).Inverse()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*qc.Circuit{
		loweredMCZ(algorithms.Grover(4, 0b1011)),
		loweredMCZ(algorithms.Grover(5, 0b10110)),
		algorithms.Adder(8),
		algorithms.QFT(5),
		algorithms.RandomCircuit(7, 30, 3),
		inv,
	} {
		p := dd.New(c.NQubits)
		u, err := verify.Functionality(p, c)
		if err != nil {
			t.Fatal(err)
		}
		checkMatrix(t, "functionality of "+c.Name, p, u, nil)
	}
}

// TestWalkAllocsConstant guards the frame path's allocations: the
// graph extraction, every frame statistic and a full simFrame must
// allocate a fixed number of times whatever the diagram's size, since
// the walk's lists live in a pooled walker. Each function is measured
// on diagrams from a handful of nodes to over a thousand.
func TestWalkAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled walkers at random")
	}
	type bound struct {
		name string
		max  float64
		run  func(i int)
	}
	rng := rand.New(rand.NewSource(5))
	var states []dd.VEdge
	var vpkgs []*dd.Pkg
	for _, n := range []int{2, 6, 11} {
		p := dd.New(n)
		e, err := p.FromVector(randomAmps(rng, n, 0))
		if err != nil {
			t.Fatal(err)
		}
		states, vpkgs = append(states, e), append(vpkgs, p)
	}
	var ops []dd.MEdge
	var mpkgs []*dd.Pkg
	for _, n := range []int{2, 4, 6} {
		p := dd.New(n)
		u, err := verify.Functionality(p, algorithms.QFT(n))
		if err != nil {
			t.Fatal(err)
		}
		ops, mpkgs = append(ops, u), append(mpkgs, p)
	}
	var sessions []*simSession
	for _, c := range []*qc.Circuit{algorithms.GHZ(3), algorithms.RandomCircuit(7, 12, 2), algorithms.RandomCircuit(10, 16, 2)} {
		s := newSimSession(c, "", "", 1, 0)
		if _, err := s.sim.RunToEnd(); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	if n := dd.SizeV(sessions[2].sim.State()); n < 500 {
		t.Fatalf("the large session's state has %d nodes, want a large diagram", n)
	}
	for _, b := range []bound{
		{"FromVector", 4, func(i int) { _ = vis.FromVector(states[i]) }},
		{"ProbOne", 0, func(i int) { _ = vpkgs[i].ProbOne(states[i], 0) }},
		{"Probabilities", 1, func(i int) { _ = vpkgs[i].Probabilities(states[i]) }},
		{"PathCount", 0, func(i int) { _ = dd.PathCount(states[i]) }},
		{"SizeByLevelV", 1, func(i int) { _ = vpkgs[i].SizeByLevelV(states[i]) }},
		{"FromMatrix", 3, func(i int) { _ = vis.FromMatrix(ops[i]) }},
		{"SizeByLevelM", 1, func(i int) { _ = mpkgs[i].SizeByLevelM(ops[i]) }},
		{"simFrame", 7, func(i int) { _ = simFrame(sessions[i], vis.Style{}, "") }},
	} {
		var first float64
		for i := 0; i < 3; i++ {
			got := testing.AllocsPerRun(20, func() { b.run(i) })
			if i == 0 {
				first = got
			}
			if i == 2 {
				t.Logf("%s: %.0f allocs", b.name, got)
			}
			if got != first || got > b.max {
				t.Errorf("%s on input %d: %.0f allocs, %.0f on the smallest input, bound %.0f", b.name, i, got, first, b.max)
			}
		}
	}
}
