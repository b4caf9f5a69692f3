package main

// Correctness oracle. Every check compares a server response with an
// answer computed independently of the handler: end-frame marginals
// against the dense internal/linalg simulation, ensemble counts against
// a direct sim.RunNoisy, verdicts and functionality sizes against
// verify.BuildFunctionality. Answers are cached by input, so each
// distinct circuit is computed once per run; the time spent here is
// excluded from every reported metric.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"time"

	"quantumdd/internal/cnum"
	"quantumdd/internal/dd"
	"quantumdd/internal/linalg"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
	"quantumdd/internal/web"
)

const probTolerance = 1e-9

// maxDenseQubits bounds the dense reference (2^20 amplitudes = 16 MiB).
const maxDenseQubits = 20

type oracle struct {
	cfg       web.Config
	marginals map[[32]byte][]float64 // by source hash; nil entry: not unitary
	counts    map[string]map[string]int
	nodes     map[string]int
	verdicts  map[string]string
	spent     time.Duration
}

func newOracle(cfg web.Config) *oracle {
	return &oracle{
		cfg:       cfg,
		marginals: map[[32]byte][]float64{},
		counts:    map[string]map[string]int{},
		nodes:     map[string]int{},
		verdicts:  map[string]string{},
	}
}

// timed charges the oracle's own work to spent, so callers can take it
// out of the closed-loop wall time.
func (o *oracle) timed(f func()) {
	t := time.Now()
	f()
	o.spent += time.Since(t)
}

// checkProbs compares a final frame's per-qubit P(|1⟩) with the dense
// simulation of the same source text. Circuits with measurements,
// resets or classical control have no single dense answer and pass.
func (o *oracle) checkProbs(code string, probs []float64) error {
	var err error
	o.timed(func() {
		key := sha256.Sum256([]byte(code))
		want, ok := o.marginals[key]
		if !ok {
			want, err = denseMarginals(code)
			if err != nil {
				return
			}
			o.marginals[key] = want
		}
		if want == nil {
			return
		}
		if len(probs) != len(want) {
			err = fmt.Errorf("frame has %d marginals, want %d", len(probs), len(want))
			return
		}
		for q := range want {
			if math.Abs(probs[q]-want[q]) > probTolerance {
				err = fmt.Errorf("P(q[%d]=1) = %.12g, dense reference %.12g", q, probs[q], want[q])
				return
			}
		}
	})
	return err
}

// denseMarginals simulates a unitary circuit on a dense state vector
// and returns P(q=1) for every qubit; nil for non-unitary or too-wide
// circuits.
func denseMarginals(code string) ([]float64, error) {
	c, err := web.ParseCircuit(code, "")
	if err != nil {
		return nil, err
	}
	return denseMarginalsOf(c), nil
}

func denseMarginalsOf(c *qc.Circuit) []float64 {
	if c.HasNonUnitary() || c.NQubits > maxDenseQubits {
		return nil
	}
	v := linalg.ZeroState(c.NQubits)
	x := qc.Matrix2(qc.X, nil)
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Kind != qc.KindGate {
			continue
		}
		var pos, neg []int
		for _, k := range op.Controls {
			if k.Neg {
				neg = append(neg, k.Qubit)
			} else {
				pos = append(pos, k.Qubit)
			}
		}
		if op.Gate == qc.Swap {
			a, b := op.Targets[0], op.Targets[1]
			linalg.ApplyControlledGate(v, x, b, append(append([]int{}, pos...), a), neg)
			linalg.ApplyControlledGate(v, x, a, append(append([]int{}, pos...), b), neg)
			linalg.ApplyControlledGate(v, x, b, append(append([]int{}, pos...), a), neg)
			continue
		}
		linalg.ApplyControlledGate(v, qc.Matrix2(op.Gate, op.Params), op.Targets[0], pos, neg)
	}
	out := make([]float64, c.NQubits)
	for i, a := range v {
		p := real(a)*real(a) + imag(a)*imag(a)
		for q := range out {
			if i>>uint(q)&1 == 1 {
				out[q] += p
			}
		}
	}
	return out
}

// checkCounts compares an ensemble histogram with a direct
// sim.RunNoisy under the server's seed, node budget and pool width.
func (o *oracle) checkCounts(w *walk, got map[string]int) error {
	var err error
	o.timed(func() {
		key := fmt.Sprintf("%s|%g|%g|%d", w.Code, w.Depolarizing, w.BitFlip, w.Trajectories)
		want, ok := o.counts[key]
		if !ok {
			var c *qc.Circuit
			if c, err = web.ParseCircuit(w.Code, ""); err != nil {
				return
			}
			model := sim.NoiseModel{Depolarizing: w.Depolarizing, BitFlip: w.BitFlip}
			var res *sim.NoisyResult
			res, err = sim.RunNoisy(c, model, w.Trajectories, o.cfg.Seed,
				sim.WithMaxNodes(o.cfg.MaxNodes), sim.WithWorkers(o.cfg.NoisyWorkers))
			if err != nil {
				return
			}
			want = map[string]int{}
			for idx, n := range res.Counts {
				want[fmt.Sprintf("%0*b", c.NQubits, idx)] = n
			}
			o.counts[key] = want
		}
		if len(got) != len(want) {
			err = fmt.Errorf("%d distinct outcomes, direct run has %d", len(got), len(want))
			return
		}
		for k, n := range want {
			if got[k] != n {
				err = fmt.Errorf("outcome %s counted %d times, direct run %d", k, got[k], n)
				return
			}
		}
	})
	return err
}

// functionality parses code and builds its (inverse) functionality
// on p, or on a fresh package under the server's node budget when p
// is nil.
func (o *oracle) functionality(p *dd.Pkg, code string, inverse bool) (*dd.Pkg, dd.MEdge, error) {
	c, err := web.ParseCircuit(code, "")
	if err != nil {
		return nil, dd.MEdge{}, err
	}
	if inverse {
		if c, err = c.Inverse(); err != nil {
			return nil, dd.MEdge{}, err
		}
	}
	if p == nil {
		p = dd.New(c.NQubits)
		p.SetMaxNodes(o.cfg.MaxNodes)
	}
	u, _, err := verify.BuildFunctionality(p, c)
	return p, u, err
}

// checkNodes compares a functionality frame's node count with
// verify.BuildFunctionality.
func (o *oracle) checkNodes(w *walk, got int) error {
	var err error
	o.timed(func() {
		key := fmt.Sprintf("%t|%s", w.Inverse, w.Code)
		want, ok := o.nodes[key]
		if !ok {
			var u dd.MEdge
			if _, u, err = o.functionality(nil, w.Code, w.Inverse); err != nil {
				return
			}
			want = dd.SizeM(u)
			o.nodes[key] = want
		}
		if got != want {
			err = fmt.Errorf("functionality has %d nodes, BuildFunctionality %d", got, want)
		}
	})
	return err
}

// checkVerdict compares the verification tab's final verdict with the
// verdict read off both functionalities built on one package: the same
// canonical edge is the identity, the same node under another weight
// is the identity up to global phase.
func (o *oracle) checkVerdict(w *walk, got string) error {
	var err error
	o.timed(func() {
		// Barriers do not change a functionality; the per-pass barrier
		// spacing must not defeat the cache.
		key := strings.ReplaceAll(w.Code+"\x00"+w.Right, "barrier q;\n", "")
		want, ok := o.verdicts[key]
		if !ok {
			var p *dd.Pkg
			var l, r dd.MEdge
			if p, l, err = o.functionality(nil, w.Code, false); err != nil {
				return
			}
			p.IncRefM(l)
			if _, r, err = o.functionality(p, w.Right, false); err != nil {
				return
			}
			switch {
			case l.N == r.N && cnum.ApproxEqual(l.W, r.W, cnum.DefaultTolerance):
				want = "identity"
			case l.N == r.N:
				want = "identity-up-to-phase"
			default:
				want = "not-identity"
			}
			o.verdicts[key] = want
		}
		if got != want {
			err = fmt.Errorf("verdict %q, functionalities give %q", got, want)
		}
	})
	return err
}
