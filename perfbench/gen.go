package main

// Seeded workload generator. A workload is an endless sequence of
// passes; a pass is a list of walks, and a walk is what one user does
// in one tab of the tool (a session, an ensemble, a functionality
// build). Choices whose reference answer is expensive are fixed for
// the run: the noisy ensembles (the Teleport angles come from the seed)
// and the Grover self-pair of the verification tab. Everything else
// (walk order, display style, dialog answers, circuits' inputs, marked
// elements and angles, barrier spacing, undo points, the perturbed
// gate, which functionality is also built inverted) is drawn per pass
// from the seed and the pass index, so a run averages over many draws
// and its cost does not depend on the seed. The server only ever
// receives the generated source text and JSON bodies.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/qc"
	"quantumdd/internal/web"
)

// Walk kinds.
const (
	walkTour   = "tour"   // create, forward, backward, forward, get, export
	walkSim    = "sim"    // create, fast-forward to the end
	walkNoisy  = "noisy"  // one trajectory ensemble
	walkFunc   = "func"   // one functionality build
	walkVerify = "verify" // create a verification session and drive it
)

// Verification drives.
const (
	driveEx12    = "ex12"    // left gate by gate, right up to the next barrier (Ex. 12)
	driveBarrier = "barrier" // both sides by barrier fast-forwards only
)

var workloads = []string{"tour", "batch", "verify"}

// walk is one generated user session. Fields not used by a kind stay
// zero.
type walk struct {
	Kind  string
	Name  string
	Code  string // circuit source text (the left circuit G for verification)
	Right string // verification: the right circuit G′
	Query string // display style, e.g. "?style=colored&labels=1"

	Ops      int    // ops of Code as the server parses it (loop bounds)
	RightOps int    // ops of Right as the server parses it
	Action   string // walkSim: fast-forward action, "end" or "break"
	Outcomes uint64 // dialog answers: the op at index i is answered with bit i%64

	Depolarizing, BitFlip float64 // walkNoisy
	Trajectories          int     // walkNoisy

	Inverse bool // walkFunc

	Drive    string // walkVerify: driveEx12 or driveBarrier
	UndoSeed int64  // walkVerify: seeds the undo/redo points
	Expect   string // walkVerify: the verdict the pair is built to reach
}

// outcome is the dialog answer for the op at index op.
func (w *walk) outcome(op int) int { return int(w.Outcomes >> uint(op%64) & 1) }

// generator produces the passes of one workload.
type generator struct {
	workload string
	seed     int64

	// batch: the two ensembles.
	ghzNoisy  walk
	teleNoisy walk

	// verify: the Grover self-pair. Its verdict reference, two
	// functionality builds of a lowered Grover(6), takes about 0.6 s, so
	// its marked element is fixed; every other verify draw is per pass.
	grover *qc.Circuit
}

func newGenerator(workload string, seed int64) (*generator, error) {
	g := &generator{workload: workload, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "tour":
	case "batch":
		if err := g.batchCircuits(rng); err != nil {
			return nil, err
		}
	case "verify":
		g.grover = algorithms.Grover(6, 0b101101)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	return g, nil
}

// batchCircuits fixes the two ensembles for the run: their direct
// reference runs cost as much as the requests, so they are computed
// once per run.
func (g *generator) batchCircuits(rng *rand.Rand) error {
	ghz, err := qasmOf(algorithms.GHZ(14))
	if err != nil {
		return err
	}
	g.ghzNoisy = walk{Kind: walkNoisy, Name: "ghz_14 noisy", Code: ghz, Depolarizing: 0.02, Trajectories: 400}
	tele, err := qasmOf(algorithms.Teleport(rng.Float64()*math.Pi, rng.Float64()*2*math.Pi))
	if err != nil {
		return err
	}
	g.teleNoisy = walk{Kind: walkNoisy, Name: "teleportation noisy", Code: tele, BitFlip: 0.01, Trajectories: 2000}
	return nil
}

// passRand seeds the per-pass choices from the run seed and the pass
// index.
func (g *generator) passRand(pass int) *rand.Rand {
	return rand.New(rand.NewSource(g.seed*1_000_003 + int64(pass)*7919 + 17))
}

// pass returns the walks of pass number pass.
func (g *generator) pass(pass int) ([]walk, error) {
	rng := g.passRand(pass)
	var walks []walk
	var err error
	switch g.workload {
	case "tour":
		walks = g.tourPass(rng)
	case "batch":
		walks, err = g.batchPass(rng)
	default:
		walks, err = g.verifyPass(rng)
	}
	if err != nil {
		return nil, err
	}
	for i := range walks {
		w := &walks[i]
		if w.Ops, err = opCount(w.Code); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		if w.RightOps, err = opCount(w.Right); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	return walks, nil
}

// opCount parses code the way the server does and counts its ops.
func opCount(code string) (int, error) {
	if code == "" {
		return 0, nil
	}
	c, err := web.ParseCircuit(code, "")
	if err != nil {
		return 0, err
	}
	return len(c.Ops), nil
}

// styleQuery draws a display style as the page's style selector sends
// it.
func styleQuery(rng *rand.Rand) string {
	q := "?style=" + []string{"classic", "colored", "modern"}[rng.Intn(3)]
	switch rng.Intn(4) {
	case 0:
		q += "&labels=1"
	case 1:
		q += "&labels=0"
	}
	return q
}

func (g *generator) tourPass(rng *rand.Rand) []walk {
	examples := web.Examples()
	var out []walk
	for _, i := range rng.Perm(len(examples)) {
		ex := examples[i]
		out = append(out, walk{Kind: walkTour, Name: ex.Name, Code: ex.Code, Query: styleQuery(rng), Outcomes: rng.Uint64()})
	}
	return out
}

// batchSims draws the pass's simulated circuits. Their seeded
// parts (marked element, basis inputs, angles, the random circuit)
// change every pass, so a run averages over them.
func batchSims(rng *rand.Rand) ([]walk, error) {
	gammas := []float64{rng.Float64() * math.Pi}
	betas := []float64{rng.Float64() * math.Pi}
	qaoa, err := algorithms.QAOAMaxCut(algorithms.Ring(8), gammas, betas)
	if err != nil {
		return nil, err
	}
	sims := []struct {
		c      *qc.Circuit
		action string
	}{
		{algorithms.Grover(7, uint64(rng.Intn(1<<7))), "end"},
		{withBasisInput(algorithms.QFT(14), rng), "end"},
		{algorithms.GHZ(20), "end"},
		{withBasisInput(algorithms.Adder(6), rng), "end"},
		{qaoa, "end"},
		{algorithms.RandomCircuit(8, 12, rng.Int63()), "end"},
		// QPE ends in a barrier and measurements: step it by breakpoints.
		{algorithms.QPE(10, float64(rng.Intn(1<<10))/(1<<10)), "break"},
	}
	out := make([]walk, len(sims))
	for i, s := range sims {
		code, err := qasmOf(s.c)
		if err != nil {
			return nil, err
		}
		out[i] = walk{Kind: walkSim, Name: s.c.Name, Code: code, Action: s.action}
	}
	return out, nil
}

func (g *generator) batchPass(rng *rand.Rand) ([]walk, error) {
	sims, err := batchSims(rng)
	if err != nil {
		return nil, err
	}
	var out []walk
	for k, i := range rng.Perm(len(sims)) {
		w := sims[i]
		w.Query = styleQuery(rng)
		w.Outcomes = rng.Uint64()
		out = append(out, w)
		switch k {
		case 1:
			out = append(out, g.ghzNoisy)
		case 4:
			out = append(out, g.teleNoisy)
		}
	}
	return out, nil
}

func (g *generator) verifyPass(rng *rand.Rand) ([]walk, error) {
	var out []walk
	pair := func(name string, left, right *qc.Circuit, drive, expect string) error {
		l, err := qasmOf(left)
		if err != nil {
			return err
		}
		r, err := qasmOf(right)
		if err != nil {
			return err
		}
		out = append(out, walk{Kind: walkVerify, Name: name, Code: l, Right: r, Query: styleQuery(rng),
			Drive: drive, UndoSeed: rng.Int63(), Expect: expect})
		return nil
	}
	for _, n := range []int{3, 5, 7} {
		qft := algorithms.QFT(n)
		compiled, err := qc.CompileNative(qft, qc.CompileOptions{EmitBarriers: true})
		if err != nil {
			return nil, err
		}
		if err := pair(fmt.Sprintf("Ex. 12 QFT(%d)", n), qft, compiled, driveEx12, "identity"); err != nil {
			return nil, err
		}
	}
	for _, c := range []*qc.Circuit{g.grover, withBasisInput(algorithms.Adder(6), rng)} {
		b := withBarriers(c, 3+rng.Intn(4))
		if err := pair(c.Name+" self-pair", b, b, driveBarrier, "identity"); err != nil {
			return nil, err
		}
	}
	left := withBarriers(algorithms.QFT(5), 3+rng.Intn(4))
	if err := pair("perturbed QFT(5)", left, perturbed(left, rng), driveBarrier, "not-identity"); err != nil {
		return nil, err
	}
	grover4 := algorithms.Grover(4, uint64(rng.Intn(1<<4)))
	grover5 := algorithms.Grover(5, uint64(rng.Intn(1<<5)))
	var funcs []walk
	for _, c := range []*qc.Circuit{grover4, grover5, algorithms.Adder(8), algorithms.QFT(5)} {
		code, err := qasmOf(c)
		if err != nil {
			return nil, err
		}
		funcs = append(funcs, walk{Kind: walkFunc, Name: c.Name, Code: code})
	}
	inv := funcs[rng.Intn(len(funcs))]
	inv.Inverse = true
	inv.Name = "inverse " + inv.Name
	for _, f := range append(funcs, inv) {
		f.Query = styleQuery(rng)
		out = append(out, f)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// withBasisInput prefixes c with X gates preparing a seeded basis
// state, so the run computes on a non-trivial input.
func withBasisInput(c *qc.Circuit, rng *rand.Rand) *qc.Circuit {
	out := qc.New(c.NQubits, c.NClbits)
	out.Name = c.Name
	for q := 0; q < c.NQubits; q++ {
		if rng.Intn(2) == 1 {
			out.X(q)
		}
	}
	out.Ops = append(out.Ops, c.Ops...)
	return out
}

// withBarriers returns c with a barrier after every `every` gates (none
// after the last gate).
func withBarriers(c *qc.Circuit, every int) *qc.Circuit {
	out := qc.New(c.NQubits, c.NClbits)
	out.Name = c.Name
	gates, total := 0, c.NumGates()
	for _, op := range c.Ops {
		out.Ops = append(out.Ops, op)
		if op.Kind == qc.KindGate {
			gates++
			if gates%every == 0 && gates < total {
				out.Barrier()
			}
		}
	}
	return out
}

// perturbed returns a copy of c with the angle of one seeded
// parameterized gate shifted by 0.1–0.6 rad, so the pair (c, perturbed)
// is not equivalent.
func perturbed(c *qc.Circuit, rng *rand.Rand) *qc.Circuit {
	out := c.Clone()
	var params []int
	for i, op := range out.Ops {
		if op.Kind == qc.KindGate && len(op.Params) > 0 {
			params = append(params, i)
		}
	}
	i := params[rng.Intn(len(params))]
	p := append([]float64(nil), out.Ops[i].Params...)
	p[0] += 0.1 + 0.5*rng.Float64()
	out.Ops[i].Params = p
	return out
}

// qasmOf serializes c as OpenQASM the server's parser accepts. The
// circuit writer has no spelling for a gate with more than two
// controls or for a doubly controlled Z (it would emit a comment and
// drop the gate), so those are lowered first: a multi-controlled Z
// becomes H·MCX·H, and an X with m > 2 controls becomes a Toffoli
// V-chain over m−2 clean ancilla qubits added above the circuit's own.
func qasmOf(c *qc.Circuit) (string, error) {
	low, err := lowerControls(c)
	if err != nil {
		return "", err
	}
	code := low.QASM()
	if strings.Contains(code, "unsupported op") {
		return "", fmt.Errorf("circuit %s has an op the QASM writer cannot spell", c.Name)
	}
	return code, nil
}

func lowerControls(c *qc.Circuit) (*qc.Circuit, error) {
	anc := 0
	for _, op := range c.Ops {
		if n := len(op.Controls) - 2; n > anc {
			anc = n
		}
	}
	out := qc.New(c.NQubits+anc, c.NClbits)
	out.Name = c.Name
	for _, op := range c.Ops {
		switch {
		case op.Kind != qc.KindGate || len(op.Controls) < 2 || (op.Gate == qc.X && len(op.Controls) == 2):
			out.Ops = append(out.Ops, op)
		case op.Gate == qc.Z && op.Cond == nil:
			t := op.Targets[0]
			out.H(t)
			mcx(out, op.Controls, t, c.NQubits)
			out.H(t)
		case op.Gate == qc.X && op.Cond == nil:
			mcx(out, op.Controls, op.Targets[0], c.NQubits)
		default:
			return nil, fmt.Errorf("circuit %s: no lowering for %s", c.Name, op.String())
		}
	}
	return out, nil
}

// mcx appends a multi-controlled X on target t. Negative controls are
// conjugated with X; more than two controls use the Toffoli V-chain
// over ancillas anc, anc+1, … (clean before and after).
func mcx(c *qc.Circuit, ctl []qc.Control, t, anc int) {
	for _, k := range ctl {
		if k.Neg {
			c.X(k.Qubit)
		}
	}
	q := func(i int) int { return ctl[i].Qubit }
	m := len(ctl)
	if m == 2 {
		c.CCX(q(0), q(1), t)
	} else {
		c.CCX(q(0), q(1), anc)
		for i := 2; i < m-1; i++ {
			c.CCX(q(i), anc+i-2, anc+i-1)
		}
		c.CCX(q(m-1), anc+m-3, t)
		for i := m - 2; i >= 2; i-- {
			c.CCX(q(i), anc+i-2, anc+i-1)
		}
		c.CCX(q(0), q(1), anc)
	}
	for _, k := range ctl {
		if k.Neg {
			c.X(k.Qubit)
		}
	}
}
