package bench

// Verify-core study: count the work of the matrix-side gate kernel
// (dd.ApplyGateML/MR) inside the equivalence checker, across every
// strategy, on equivalent pairs with different gate sequences. The
// counts are properties of the algorithm, so a baseline gates them
// exactly.

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/verify"
)

// verifyPair is one equivalence-checking workload: two independently
// compiled but equivalent circuits.
type verifyPair struct {
	name   string
	c1, c2 *qc.Circuit
	reps   int // check runs per timing sample, amortizing setup
}

// cxToHCZH rewrites every singly-positive-controlled X as H·CZ·H — a
// provably equivalent recompilation, giving the alternating scheme a
// pair with genuinely different gate sequences.
func cxToHCZH(c *qc.Circuit) *qc.Circuit {
	out := qc.New(c.NQubits, 0)
	out.Name = c.Name + "-recompiled"
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Kind == qc.KindGate && op.Gate == qc.X && len(op.Controls) == 1 && !op.Controls[0].Neg {
			t, ctl := op.Targets[0], op.Controls[0].Qubit
			out.H(t)
			out.Z(t, qc.Control{Qubit: ctl})
			out.H(t)
			continue
		}
		out.Ops = append(out.Ops, *op)
	}
	return out
}

// randomClifford builds a deterministic random Clifford circuit from
// H, S and CX layers — the circuit family whose functionality stays
// DD-compact, so the check is dominated by per-step gate application
// (exactly what V1 wants to measure).
func randomClifford(n, layers int, seed int64) *qc.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := qc.New(n, 0)
	c.Name = fmt.Sprintf("clifford-%d-%d", n, layers)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			switch rng.Intn(3) {
			case 0:
				c.H(q)
			case 1:
				c.S(q)
			case 2:
				c.H(q)
				c.S(q)
			}
		}
		// Brickwork entangler: nearest-neighbour CX pairs, offset
		// alternating per layer — the structured regime decision
		// diagrams stay compact in.
		for q := l % 2; q+1 < n; q += 2 {
			c.CX(q, q+1)
		}
	}
	return c
}

var v1Strategies = []verify.Strategy{
	verify.Construction, verify.Sequential, verify.OneToOne,
	verify.Proportional, verify.Lookahead,
}

// runV1 checks every pair under every strategy on a fresh package,
// requires the verdict "equivalent", and sums the kernel's op count,
// matrix-apply compute-table hits and identity skips; it records the
// peak diagram size of each pair under each strategy, and times the
// checks.
func runV1(w io.Writer) (Summary, error) {
	pairs := []verifyPair{
		{"ghz12", algorithms.GHZ(12), cxToHCZH(algorithms.GHZ(12)), 10},
		{"qft7", algorithms.QFT(7), algorithms.QFTCompiled(7), 2},
		{"clifford8", randomClifford(8, 4, 5), cxToHCZH(randomClifford(8, 4, 5)), 3},
	}
	fmt.Fprintf(w, "%-12s %-13s %8s %10s %10s %12s\n", "pair", "strategy", "peak", "kernel ops", "ct hits", "time")
	sum := Summary{}
	var ctHits, kernelOps, skips uint64
	for _, pair := range pairs {
		var total time.Duration
		for _, s := range v1Strategies {
			p := dd.New(pair.c1.NQubits)
			r, err := verify.CheckOn(p, pair.c1, pair.c2, s)
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", pair.name, s, err)
			}
			if !r.Equivalent {
				return nil, fmt.Errorf("%s/%v: equivalent pair rejected", pair.name, s)
			}
			st := p.Stats()
			ctHits += st.ApplyMCTHits
			skips += st.ApplyMIdentitySkips
			kernelOps += uint64(r.KernelOps)
			sum[fmt.Sprintf("peak_nodes_%s_%v", pair.name, s)] = float64(r.PeakNodes)

			d := timeIt(func() {
				for range pair.reps {
					if _, err := verify.CheckOn(dd.New(pair.c1.NQubits), pair.c1, pair.c2, s); err != nil {
						panic(err)
					}
				}
			})
			total += d
			fmt.Fprintf(w, "%-12s %-13v %8d %10d %10d %12s\n", pair.name, s, r.PeakNodes, r.KernelOps, st.ApplyMCTHits, d)
		}
		sum[pair.name+"_total_ms"] = float64(total.Microseconds()) / 1000
	}
	sum["applym_ct_hits"] = float64(ctHits)
	sum["kernel_ops"] = float64(kernelOps)
	sum["applym_identity_skips"] = float64(skips)
	if ctHits == 0 {
		return nil, fmt.Errorf("matrix-apply compute table never hit")
	}
	return sum, nil
}
