package bench

import (
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/cnum"
	"quantumdd/internal/dd"
	"quantumdd/internal/linalg"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
	"quantumdd/internal/vis"
)

func gateDD(p *dd.Pkg, g qc.Gate, params []float64, target int, controls ...dd.Control) dd.MEdge {
	return p.MakeGateDD(dd.GateMatrix(qc.Matrix2(g, params)), target, controls...)
}

// runE1 rebuilds the Bell-state diagram of Fig. 2(a) and checks the
// quantitative claims of Ex. 1, 2 and 6.
func runE1(w io.Writer) (Summary, error) {
	p := dd.New(2)
	state := p.MultMV(gateDD(p, qc.X, nil, 0, dd.Control{Qubit: 1}),
		p.MultMV(gateDD(p, qc.H, nil, 1), p.ZeroState()))
	nodes := dd.SizeV(state)
	a00 := dd.Amplitude(state, 0)
	a11 := dd.Amplitude(state, 3)
	p1 := p.ProbOne(state, 0)
	fmt.Fprintf(w, "%-28s %8s %12s\n", "quantity", "paper", "measured")
	fmt.Fprintf(w, "%-28s %8s %12d\n", "DD nodes", "3", nodes)
	fmt.Fprintf(w, "%-28s %8s %12.6f\n", "amplitude |00>", "0.7071", real(a00))
	fmt.Fprintf(w, "%-28s %8s %12.6f\n", "amplitude |11>", "0.7071", real(a11))
	fmt.Fprintf(w, "%-28s %8s %12.3f\n", "P(q0 = 1)", "0.5", p1)
	if nodes != 3 {
		return nil, fmt.Errorf("Bell DD has %d nodes, want 3", nodes)
	}
	return Summary{
		"nodes":       float64(nodes),
		"amp00":       real(a00),
		"amp11":       real(a11),
		"probOne":     p1,
		"denseLength": 4,
	}, nil
}

// runE2 rebuilds the gate diagrams of Fig. 2(b,c).
func runE2(w io.Writer) (Summary, error) {
	p1q := dd.New(1)
	h := gateDD(p1q, qc.H, nil, 0)
	p2q := dd.New(2)
	cx := gateDD(p2q, qc.X, nil, 0, dd.Control{Qubit: 1})
	hNodes := dd.SizeM(h)
	cxNodes := dd.SizeM(cx)
	fmt.Fprintf(w, "%-28s %8s %12s\n", "diagram", "paper", "measured")
	fmt.Fprintf(w, "%-28s %8s %12d\n", "H nodes", "1", hNodes)
	fmt.Fprintf(w, "%-28s %8s %12d\n", "CNOT nodes", "3", cxNodes)
	// Entry checks against Fig. 1.
	if e := dd.MatrixEntry(h, 1, 1); math.Abs(real(e)+cnum.SqrtHalf) > 1e-12 {
		return nil, fmt.Errorf("H[1][1] = %v, want -1/sqrt2", e)
	}
	if e := dd.MatrixEntry(cx, 3, 2); e != 1 {
		return nil, fmt.Errorf("CNOT[3][2] = %v, want 1", e)
	}
	if hNodes != 1 || cxNodes != 3 {
		return nil, fmt.Errorf("node counts (%d,%d) differ from paper (1,3)", hNodes, cxNodes)
	}
	return Summary{"hNodes": float64(hNodes), "cnotNodes": float64(cxNodes)}, nil
}

// runE3 reproduces the kron construction of Fig. 3 and the state
// evolution of Ex. 3.
func runE3(w io.Writer) (Summary, error) {
	p := dd.New(2)
	direct := gateDD(p, qc.H, nil, 1)
	state := p.MultMV(direct, p.ZeroState())
	want := []complex128{complex(cnum.SqrtHalf, 0), 0, complex(cnum.SqrtHalf, 0), 0}
	got := p.Vector(state)
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			return nil, fmt.Errorf("(H⊗I)|00⟩ amplitude %d = %v, want %v", i, got[i], want[i])
		}
	}
	nodes := dd.SizeM(direct)
	fmt.Fprintf(w, "%-28s %8s %12s\n", "quantity", "paper", "measured")
	fmt.Fprintf(w, "%-28s %8s %12d\n", "H⊗I2 nodes", "2", nodes)
	fmt.Fprintf(w, "%-28s %8s %12.4f\n", "amplitude |00>", "0.7071", real(got[0]))
	fmt.Fprintf(w, "%-28s %8s %12.4f\n", "amplitude |10>", "0.7071", real(got[2]))
	// The dense construction materializes 16 entries; the DD needs 2
	// nodes — report the ratio as the compaction factor.
	return Summary{"kronNodes": float64(nodes), "denseEntries": 16}, nil
}

// runE4 steps through the Fig. 8 walk-through with the measurement
// dialog forced to |1⟩.
func runE4(w io.Writer) (Summary, error) {
	s := sim.New(algorithms.BellMeasured(), sim.WithChooser(
		func(op *qc.Op, q int, p0, p1 float64) int { return 1 }))
	fmt.Fprintf(w, "%-8s %-30s %8s %10s\n", "step", "event", "nodes", "P(|1>)")
	record := func(label string) {
		fmt.Fprintf(w, "%-8s %-30s %8d %10.3f\n", label, "", dd.SizeV(s.State()), s.ProbOne(0))
	}
	record("init")
	var dialogP0, dialogP1 float64
	for !s.AtEnd() {
		ev, err := s.StepForward()
		if err != nil {
			return nil, err
		}
		if ev.Kind == sim.EventMeasure && ev.Op.Targets[0] == 0 {
			dialogP0, dialogP1 = ev.P0, ev.P1
		}
		fmt.Fprintf(w, "%-8d %-30s %8d %10.3f\n", ev.OpIndex, ev.Op.String(), dd.SizeV(s.State()), safeProb(s))
	}
	final := s.Amplitudes()
	if cmplx.Abs(final[3]-1) > 1e-9 {
		return nil, fmt.Errorf("final state is not |11⟩: %v", final)
	}
	if math.Abs(dialogP0-0.5) > 1e-9 || math.Abs(dialogP1-0.5) > 1e-9 {
		return nil, fmt.Errorf("dialog probabilities %v/%v, want 0.5/0.5", dialogP0, dialogP1)
	}
	return Summary{"dialogP0": dialogP0, "dialogP1": dialogP1, "finalAmp11": real(final[3])}, nil
}

func safeProb(s *sim.Simulator) float64 {
	defer func() { _ = recover() }()
	return s.ProbOne(0)
}

// runE5 builds the QFT functionality both ways (Fig. 5(a) and (b)) and
// compares against the dense ω-matrix of Fig. 5(c).
func runE5(w io.Writer) (Summary, error) {
	p := dd.New(3)
	u1, err := verify.Functionality(p, algorithms.QFT(3))
	if err != nil {
		return nil, err
	}
	p.IncRefM(u1) // the second build may collect garbage
	u2, err := verify.Functionality(p, algorithms.QFTCompiled(3))
	if err != nil {
		return nil, err
	}
	same := 0.0
	if u1 == u2 {
		same = 1.0
	}
	nodes := dd.SizeM(u1)
	want := linalg.QFTMatrix(3)
	maxErr := 0.0
	for i := int64(0); i < 8; i++ {
		for j := int64(0); j < 8; j++ {
			d := cmplx.Abs(dd.MatrixEntry(u1, i, j) - want.At(int(i), int(j)))
			if d > maxErr {
				maxErr = d
			}
		}
	}
	// ω = e^{iπ/4}: entry (1,1) is ω/√8.
	omega := dd.MatrixEntry(u1, 1, 1) * complex(math.Sqrt(8), 0)
	fmt.Fprintf(w, "%-32s %8s %12s\n", "quantity", "paper", "measured")
	fmt.Fprintf(w, "%-32s %8s %12d\n", "functionality DD nodes", "21", nodes)
	fmt.Fprintf(w, "%-32s %8s %12.0f\n", "identical canonical roots", "yes", same)
	fmt.Fprintf(w, "%-32s %8s %12.2e\n", "max |entry - ω-matrix|", "0", maxErr)
	fmt.Fprintf(w, "%-32s %8s   %.4f%+.4fi\n", "ω = e^{iπ/4}", "0.7071+0.7071i", real(omega), imag(omega))
	if same != 1 || nodes != 21 || maxErr > 1e-9 {
		return nil, fmt.Errorf("E5 deviates: same=%v nodes=%d err=%g", same, nodes, maxErr)
	}
	return Summary{"nodes": float64(nodes), "identicalRoots": same, "maxEntryErr": maxErr}, nil
}

// runE6 compares the verification strategies on the Fig. 5 pair and
// reports the per-step trace of the proportional walk (Fig. 9).
func runE6(w io.Writer) (Summary, error) {
	qft := algorithms.QFT(3)
	comp := algorithms.QFTCompiled(3)
	fmt.Fprintf(w, "%-16s %12s %12s %12s %8s\n", "strategy", "peak nodes", "final nodes", "mult ops", "equiv")
	sum := Summary{}
	for _, s := range []verify.Strategy{verify.Construction, verify.Sequential, verify.OneToOne, verify.Proportional, verify.Lookahead} {
		res, err := verify.Check(qft, comp, s)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%-16s %12d %12d %12d %8v\n", res.Strategy, res.PeakNodes, res.FinalNodes, res.MultOps, res.Equivalent)
		sum["peak_"+res.Strategy.String()] = float64(res.PeakNodes)
		if !res.Equivalent {
			return nil, fmt.Errorf("strategy %v reported non-equivalence", s)
		}
	}
	prop, err := verify.Check(qft, comp, verify.Proportional)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "\nproportional walk (Ex. 12 / Fig. 9):")
	fmt.Fprintf(w, "%-6s %-4s %-28s %6s\n", "step", "side", "gate", "nodes")
	for i, r := range prop.Trace {
		fmt.Fprintf(w, "%-6d %-4s %-28s %6d\n", i, r.Side, r.Gate, r.Nodes)
	}
	if sum["peak_proportional"] != 9 || sum["peak_construction"] != 21 {
		return nil, fmt.Errorf("Ex. 12 numbers deviate: proportional %v, construction %v",
			sum["peak_proportional"], sum["peak_construction"])
	}
	return sum, nil
}

// runE7 renders the Bell state and the QFT functionality in all three
// styles plus DOT and the color wheel, reporting structural markers.
func runE7(w io.Writer) (Summary, error) {
	p := dd.New(2)
	state := p.MultMV(gateDD(p, qc.X, nil, 0, dd.Control{Qubit: 1}),
		p.MultMV(gateDD(p, qc.H, nil, 1), p.ZeroState()))
	g := vis.FromVector(state)
	classic := g.SVG(vis.Style{Mode: vis.Classic})
	colored := g.SVG(vis.Style{Mode: vis.Colored})
	modern := g.SVG(vis.Style{Mode: vis.Modern})
	dot := g.DOT(vis.Style{Mode: vis.Classic})
	wheel := vis.ColorWheelSVG(160)
	sum := Summary{
		"classicBytes":  float64(len(classic)),
		"coloredBytes":  float64(len(colored)),
		"modernBytes":   float64(len(modern)),
		"dotBytes":      float64(len(dot)),
		"wheelSegments": float64(strings.Count(wheel, "<path")),
		"classicDashes": float64(strings.Count(classic, "stroke-dasharray")),
	}
	fmt.Fprintf(w, "%-24s %10s\n", "artifact", "bytes")
	fmt.Fprintf(w, "%-24s %10d  (dashed non-unit edges: %d, weight labels: yes)\n", "classic SVG", len(classic), strings.Count(classic, "stroke-dasharray"))
	fmt.Fprintf(w, "%-24s %10d  (phase-colored, magnitude-scaled)\n", "colored SVG", len(colored))
	fmt.Fprintf(w, "%-24s %10d  (probability bars)\n", "modern SVG", len(modern))
	fmt.Fprintf(w, "%-24s %10d\n", "Graphviz DOT", len(dot))
	fmt.Fprintf(w, "%-24s %10d  (%d hue segments)\n", "HLS color wheel", len(wheel), strings.Count(wheel, "<path"))
	if sum["classicDashes"] == 0 {
		return nil, fmt.Errorf("classic style lost its dashed-edge convention")
	}
	if !strings.Contains(colored, vis.PhaseColor(1)) {
		return nil, fmt.Errorf("colored style lost its phase encoding")
	}
	return sum, nil
}

// runE8 is the scaling study: DD size versus the 2^n dense
// representation for structured and unstructured instances.
func runE8(w io.Writer) (Summary, error) {
	fmt.Fprintf(w, "%-10s %6s %12s %12s %12s %12s\n", "family", "n", "DD nodes", "dense amps", "DD/dense", "note")
	sum := Summary{}
	type row struct {
		family string
		n      int
		nodes  int
	}
	var rows []row
	// Structured states: basis, GHZ, W — expect linear node growth.
	for _, n := range []int{4, 8, 12, 16} {
		p := dd.New(n)
		rows = append(rows, row{"basis", n, dd.SizeV(p.BasisState(0))})
		ghz, err := runCircuit(algorithms.GHZ(n))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{"ghz", n, ghz})
		ws, err := runCircuit(algorithms.WState(n))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{"w", n, ws})
	}
	// Random states: expect exponential growth toward 2^n - 1.
	for _, n := range []int{4, 6, 8, 10} {
		nodes, err := runCircuit(algorithms.Entangled(n, 6, 1))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{"random", n, nodes})
	}
	// QFT functionality matrix DDs.
	for _, n := range []int{2, 3, 4, 5, 6} {
		p := dd.New(n)
		u, err := verify.Functionality(p, algorithms.QFT(n))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{"qft-mat", n, dd.SizeM(u)})
	}
	for _, r := range rows {
		dense := math.Pow(2, float64(r.n))
		if r.family == "qft-mat" {
			dense = dense * dense
		}
		note := ""
		switch r.family {
		case "basis", "ghz", "w":
			note = "linear"
		case "random":
			note = "exponential"
		case "qft-mat":
			note = "quadratic-ish"
		}
		fmt.Fprintf(w, "%-10s %6d %12d %12.0f %12.2e %12s\n", r.family, r.n, r.nodes, dense, float64(r.nodes)/dense, note)
		sum[fmt.Sprintf("%s_%d", r.family, r.n)] = float64(r.nodes)
	}
	// Shape assertions: who wins where.
	if sum["ghz_16"] >= 64 {
		return nil, fmt.Errorf("GHZ(16) DD unexpectedly large: %v nodes", sum["ghz_16"])
	}
	if sum["random_10"] < 200 {
		return nil, fmt.Errorf("random 10-qubit state unexpectedly compact: %v nodes (broken hardness)", sum["random_10"])
	}
	// Wall-clock crossover (informational): DD vs the dense in-place
	// simulator on a structured instance (GHZ) and a random one. The
	// shape claim: DD wins on structure, dense wins on small random
	// instances — exactly the "strengths and limits" of the paper.
	fmt.Fprintf(w, "\n%-12s %6s %14s %14s\n", "family", "n", "DD time", "dense time")
	for _, tc := range []struct {
		family string
		n      int
		circ   *qc.Circuit
	}{
		{"ghz", 16, algorithms.GHZ(16)},
		{"ghz", 20, algorithms.GHZ(20)},
		{"random", 8, algorithms.Entangled(8, 4, 1)},
		{"random", 10, algorithms.Entangled(10, 4, 1)},
	} {
		ddTime := timeIt(func() {
			s := sim.New(tc.circ)
			if _, err := s.RunToEnd(); err != nil {
				panic(err)
			}
		})
		denseTime := timeIt(func() { denseRun(tc.circ) })
		fmt.Fprintf(w, "%-12s %6d %14s %14s\n", tc.family, tc.n, ddTime, denseTime)
	}
	return sum, nil
}

// timeIt reports the wall-clock of f, best of three runs.
func timeIt(f func()) time.Duration {
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// denseRun simulates a unitary circuit with the in-place dense baseline.
func denseRun(c *qc.Circuit) {
	v := linalg.ZeroState(c.NQubits)
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Kind != qc.KindGate {
			continue
		}
		var pos, neg []int
		for _, ctl := range op.Controls {
			if ctl.Neg {
				neg = append(neg, ctl.Qubit)
			} else {
				pos = append(pos, ctl.Qubit)
			}
		}
		if op.Gate == qc.Swap {
			x := qc.Matrix2(qc.X, nil)
			a, t := op.Targets[0], op.Targets[1]
			linalg.ApplyControlledGate(v, x, t, append(append([]int{}, pos...), a), neg)
			linalg.ApplyControlledGate(v, x, a, append(append([]int{}, pos...), t), neg)
			linalg.ApplyControlledGate(v, x, t, append(append([]int{}, pos...), a), neg)
			continue
		}
		linalg.ApplyControlledGate(v, qc.Matrix2(op.Gate, op.Params), op.Targets[0], pos, neg)
	}
}

func runCircuit(c *qc.Circuit) (int, error) {
	s := sim.New(c)
	if _, err := s.RunToEnd(); err != nil {
		return 0, err
	}
	return dd.SizeV(s.State()), nil
}

// runE9 validates sampling against exact Born probabilities via the
// total-variation distance.
func runE9(w io.Writer) (Summary, error) {
	const shots = 200000
	fmt.Fprintf(w, "%-12s %10s %14s\n", "circuit", "shots", "TV distance")
	sum := Summary{}
	cases := []struct {
		name string
		circ *qc.Circuit
	}{
		{"bell", algorithms.Bell()},
		{"ghz4", algorithms.GHZ(4)},
		{"w4", algorithms.WState(4)},
		{"random3", algorithms.RandomCircuit(3, 4, 9)},
	}
	for _, c := range cases {
		s := sim.New(c.circ)
		if _, err := s.RunToEnd(); err != nil {
			return nil, err
		}
		amps := s.Amplitudes()
		counts := dd.SampleCounts(s.State(), shots, rand.New(rand.NewSource(1234)))
		tv := 0.0
		for idx, amp := range amps {
			pExact := real(amp)*real(amp) + imag(amp)*imag(amp)
			pEmp := float64(counts[int64(idx)]) / shots
			tv += math.Abs(pExact - pEmp)
		}
		tv /= 2
		fmt.Fprintf(w, "%-12s %10d %14.5f\n", c.name, shots, tv)
		sum["tv_"+c.name] = tv
		if tv > 0.01 {
			return nil, fmt.Errorf("%s: sampling deviates from Born distribution (TV %v)", c.name, tv)
		}
	}
	return sum, nil
}

// runE10 runs teleportation end-to-end over random payloads and seeds
// and reports the payload fidelity on Bob's qubit.
func runE10(w io.Writer) (Summary, error) {
	rng := rand.New(rand.NewSource(77))
	worst := 1.0
	const trials = 50
	for i := 0; i < trials; i++ {
		theta := rng.Float64() * math.Pi
		phi := rng.Float64() * 2 * math.Pi
		s := sim.New(algorithms.Teleport(theta, phi), sim.WithSeed(rng.Int63()))
		if _, err := s.RunToEnd(); err != nil {
			return nil, err
		}
		u := qc.Matrix2(qc.U, []float64{theta, phi, 0})
		want0, want1 := u[0], u[2]
		amps := s.Amplitudes()
		var got0, got1 complex128
		for idx, amp := range amps {
			if cmplx.Abs(amp) < 1e-12 {
				continue
			}
			if idx&1 == 0 {
				got0 = amp
			} else {
				got1 = amp
			}
		}
		f := cmplx.Abs(cmplx.Conj(got0)*want0 + cmplx.Conj(got1)*want1)
		if f < worst {
			worst = f
		}
	}
	fmt.Fprintf(w, "%-28s %10d\n", "random payload trials", trials)
	fmt.Fprintf(w, "%-28s %10.6f\n", "worst payload fidelity", worst)
	if worst < 1-1e-6 {
		return nil, fmt.Errorf("teleportation lost fidelity: %v", worst)
	}
	return Summary{"worstFidelity": worst, "trials": trials}, nil
}

// runA1 quantifies the tolerance-based complex table (ref [14]): with
// an effectively disabled tolerance, numerically equal values stop
// being identified and node sharing degrades.
func runA1(w io.Writer) (Summary, error) {
	build := func(tol float64) (int, int) {
		p := dd.NewTol(3, tol)
		u, err := verify.Functionality(p, algorithms.QFTCompiled(3))
		if err != nil {
			return 0, 0
		}
		_, mat := p.ActiveNodes()
		return dd.SizeM(u), mat
	}
	nodesDefault, liveDefault := build(cnum.DefaultTolerance)
	nodesTiny, liveTiny := build(1e-17)
	fmt.Fprintf(w, "%-24s %14s %14s\n", "tolerance", "final nodes", "live nodes")
	fmt.Fprintf(w, "%-24g %14d %14d\n", cnum.DefaultTolerance, nodesDefault, liveDefault)
	fmt.Fprintf(w, "%-24g %14d %14d\n", 1e-17, nodesTiny, liveTiny)
	if liveTiny <= liveDefault {
		// Not fatal (small instance), but the expected direction is
		// more live nodes without identification.
		fmt.Fprintln(w, "note: instance too small to show degradation in live nodes")
	}
	return Summary{
		"nodesDefault": float64(nodesDefault),
		"nodesTiny":    float64(nodesTiny),
		"liveDefault":  float64(liveDefault),
		"liveTiny":     float64(liveTiny),
	}, nil
}

// runA2 quantifies the compute tables: repeated application of the
// same circuit layer with caches on vs off.
func runA2(w io.Writer) (Summary, error) {
	run := func(disable bool) dd.Stats {
		p := dd.New(8)
		if disable {
			p.SetComputeTableSize(0)
		}
		st := p.ZeroState()
		layer := make([]dd.MEdge, 0, 8)
		for q := 0; q < 8; q++ {
			layer = append(layer, gateDD(p, qc.H, nil, q))
		}
		for rep := 0; rep < 10; rep++ {
			for _, g := range layer {
				st = p.MultMV(g, st)
			}
		}
		return p.Stats()
	}
	on := run(false)
	off := run(true)
	rateOn := float64(on.CacheHits) / float64(on.CacheLookups)
	rateOff := float64(off.CacheHits) / float64(off.CacheLookups)
	fmt.Fprintf(w, "%-12s %12s %12s %10s %10s %10s\n", "caches", "lookups", "hits", "hit rate", "ct stores", "ct evict")
	fmt.Fprintf(w, "%-12s %12d %12d %10.3f %10d %10d\n", "enabled", on.CacheLookups, on.CacheHits, rateOn, on.CTStores, on.CTEvictions)
	fmt.Fprintf(w, "%-12s %12d %12d %10.3f %10d %10d\n", "disabled", off.CacheLookups, off.CacheHits, rateOff, off.CTStores, off.CTEvictions)
	fmt.Fprintf(w, "unique-table load: vector %.3f, matrix %.3f; chain collisions: %d\n",
		on.UniqueLoadV, on.UniqueLoadM, on.UTCollisions)
	if rateOn <= rateOff {
		return nil, fmt.Errorf("enabled caches do not outperform disabled ones (%v vs %v)", rateOn, rateOff)
	}
	return Summary{"hitRateOn": rateOn, "hitRateOff": rateOff}, nil
}

// runA4 compares the two vector normalization schemes: both are
// canonical and represent identical states, but only the 2-norm scheme
// (footnote 3 of the paper) turns squared edge weights into branch
// probabilities — the prerequisite for O(n) sampling and the
// measurement dialogs.
func runA4(w io.Writer) (Summary, error) {
	const n = 6
	build := func(scheme dd.NormScheme) (*dd.Pkg, dd.VEdge, error) {
		p := dd.New(n)
		p.SetVectorNormalization(scheme)
		st := p.ZeroState()
		circ := algorithms.WState(n)
		for i := range circ.Ops {
			op := &circ.Ops[i]
			if op.Kind != qc.KindGate {
				continue
			}
			var err error
			if st, err = p.ApplyOp(st, op); err != nil {
				return nil, dd.VZero(), err
			}
		}
		return p, st, nil
	}
	p2, e2, err := build(dd.NormL2)
	if err != nil {
		return nil, err
	}
	pm, em, err := build(dd.NormMax)
	if err != nil {
		return nil, err
	}
	n2 := dd.SizeV(e2)
	nm := dd.SizeV(em)
	// Amplitudes must agree between schemes.
	maxDiff := 0.0
	v2 := p2.Vector(e2)
	vm := pm.Vector(em)
	for i := range v2 {
		if d := cmplx.Abs(v2[i] - vm[i]); d > maxDiff {
			maxDiff = d
		}
	}
	// Probability read-out only works under NormL2.
	samplingOK := func(p *dd.Pkg, e dd.VEdge) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_ = p.ProbOne(e, 0)
		return true
	}
	fmt.Fprintf(w, "%-14s %12s %16s %18s\n", "scheme", "DD nodes", "amp max diff", "prob read-out")
	fmt.Fprintf(w, "%-14s %12d %16s %18v\n", "2-norm", n2, "-", samplingOK(p2, e2))
	fmt.Fprintf(w, "%-14s %12d %16.2e %18v\n", "max-norm", nm, maxDiff, samplingOK(pm, em))
	if maxDiff > 1e-9 {
		return nil, fmt.Errorf("normalization schemes represent different states (diff %g)", maxDiff)
	}
	if !samplingOK(p2, e2) || samplingOK(pm, em) {
		return nil, fmt.Errorf("probability read-out guard wrong")
	}
	return Summary{"nodesL2": float64(n2), "nodesMax": float64(nm), "ampMaxDiff": maxDiff}, nil
}

// runA5 sweeps the approximation threshold on a hard (near-maximal)
// random state and reports the size/fidelity trade-off — the standard
// counter-measure when the exponential worst case of Sec. III hits.
func runA5(w io.Writer) (Summary, error) {
	const n = 12
	circ := algorithms.Entangled(n, 6, 3)
	s := sim.New(circ)
	if _, err := s.RunToEnd(); err != nil {
		return nil, err
	}
	p := s.Pkg()
	e := s.State()
	fmt.Fprintf(w, "%-12s %12s %12s %14s\n", "threshold", "nodes", "kept ratio", "fidelity")
	sum := Summary{}
	base := dd.SizeV(e)
	fmt.Fprintf(w, "%-12s %12d %12.3f %14.9f\n", "exact", base, 1.0, 1.0)
	prevFid := 1.0
	for _, th := range []float64{1e-8, 1e-6, 1e-5, 1e-4, 1e-3} {
		approx, fid, _, after := p.Approximate(e, th)
		_ = approx
		fmt.Fprintf(w, "%-12.0e %12d %12.3f %14.9f\n", th, after, float64(after)/float64(base), fid)
		sum[fmt.Sprintf("nodes_%.0e", th)] = float64(after)
		sum[fmt.Sprintf("fid_%.0e", th)] = fid
		if fid > prevFid+1e-9 {
			return nil, fmt.Errorf("fidelity not monotone in threshold")
		}
		prevFid = fid
	}
	if sum["nodes_1e-03"] >= float64(base) {
		return nil, fmt.Errorf("aggressive pruning did not shrink the diagram")
	}
	if sum["fid_1e-06"] < 0.99 {
		return nil, fmt.Errorf("gentle pruning lost too much fidelity: %v", sum["fid_1e-06"])
	}
	return sum, nil
}

// runA3 sweeps the verification strategies over growing QFT sizes.
func runA3(w io.Writer) (Summary, error) {
	fmt.Fprintf(w, "%-6s %14s %14s %14s %14s\n", "n", "construction", "sequential", "one-to-one", "proportional")
	sum := Summary{}
	for _, n := range []int{3, 4, 5, 6} {
		qft := algorithms.QFT(n)
		comp := algorithms.QFTCompiled(n)
		var peaks []int
		for _, s := range []verify.Strategy{verify.Construction, verify.Sequential, verify.OneToOne, verify.Proportional} {
			res, err := verify.Check(qft, comp, s)
			if err != nil {
				return nil, err
			}
			if !res.Equivalent {
				return nil, fmt.Errorf("QFT(%d) strategy %v failed", n, s)
			}
			peaks = append(peaks, res.PeakNodes)
		}
		fmt.Fprintf(w, "%-6d %14d %14d %14d %14d\n", n, peaks[0], peaks[1], peaks[2], peaks[3])
		sum[fmt.Sprintf("prop_%d", n)] = float64(peaks[3])
		sum[fmt.Sprintf("cons_%d", n)] = float64(peaks[0])
		if peaks[3] > peaks[0] {
			return nil, fmt.Errorf("QFT(%d): proportional peak %d exceeds construction %d", n, peaks[3], peaks[0])
		}
	}
	return sum, nil
}

// runA6 quantifies the variable-order dependence the paper notes in
// Sec. III-C ("canonic representation with respect to a given variable
// order"): interleaved Bell pairs are exponential under the natural
// order and linear once partners sit adjacently; greedy sifting finds
// such an order automatically.
func runA6(w io.Writer) (Summary, error) {
	fmt.Fprintf(w, "%-6s %14s %14s %14s\n", "n", "natural order", "paired order", "sifted")
	sum := Summary{}
	for _, n := range []int{6, 8, 10, 12} {
		p := dd.New(n)
		st := p.ZeroState()
		for i := 0; i < n/2; i++ {
			st = p.MultMV(gateDD(p, qc.H, nil, i), st)
			st = p.MultMV(gateDD(p, qc.X, nil, i+n/2, dd.Control{Qubit: i}), st)
		}
		natural := dd.SizeV(st)
		perm := make([]int, n)
		for i := 0; i < n/2; i++ {
			perm[i] = 2 * i
			perm[i+n/2] = 2*i + 1
		}
		paired, err := p.ReorderedSize(st, perm)
		if err != nil {
			return nil, err
		}
		sifted := -1
		if n <= 10 { // sifting is O(n^2) reorders; keep the harness quick
			_, sifted, err = p.SiftOrder(st)
			if err != nil {
				return nil, err
			}
		}
		if sifted >= 0 {
			fmt.Fprintf(w, "%-6d %14d %14d %14d\n", n, natural, paired, sifted)
		} else {
			fmt.Fprintf(w, "%-6d %14d %14d %14s\n", n, natural, paired, "-")
		}
		sum[fmt.Sprintf("natural_%d", n)] = float64(natural)
		sum[fmt.Sprintf("paired_%d", n)] = float64(paired)
		if paired >= natural && n >= 8 {
			return nil, fmt.Errorf("order study broken: paired %d >= natural %d at n=%d", paired, natural, n)
		}
	}
	return sum, nil
}
