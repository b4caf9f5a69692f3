package bench

// Verify-core study (PR 9): quantify the matrix-side gate kernel
// (dd.ApplyGateML/MR) against the MakeGateDD+MultMM baseline inside
// the alternating equivalence checker, across every strategy, with a
// bit-identical-verdict cross-check before any timing.

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

func timeVerify(pair verifyPair, s verify.Strategy, opts ...verify.Option) time.Duration {
	return timeIt(func() {
		for r := 0; r < pair.reps; r++ {
			p := dd.New(pair.c1.NQubits)
			if _, err := verify.CheckOn(p, pair.c1, pair.c2, s, opts...); err != nil {
				panic(err)
			}
		}
	})
}

// runV1 cross-checks the matrix-apply kernel against the generic
// MultMM oracle on every strategy (identical verdicts, phase flags and
// pointer-identical root edges on a shared package), then times both
// engines on fresh packages per run.
func runV1(w io.Writer) (Summary, error) {
	pairs := []verifyPair{
		{"ghz12", algorithms.GHZ(12), cxToHCZH(algorithms.GHZ(12)), 10},
		{"qft7", algorithms.QFT(7), algorithms.QFTCompiled(7), 2},
		{"clifford8", randomClifford(8, 4, 5), cxToHCZH(randomClifford(8, 4, 5)), 3},
	}
	fmt.Fprintf(w, "%-12s %-13s %12s %12s %9s\n", "pair", "strategy", "generic", "kernel", "speedup")
	sum := Summary{}
	var ctHits, kernelOps, genericOps uint64
	var totalGeneric, totalKernel time.Duration
	for _, pair := range pairs {
		var pairGeneric, pairKernel time.Duration
		for _, s := range v1Strategies {
			// Differential cross-check on one shared package first:
			// canonicity makes disagreement a pointer inequality.
			p := dd.New(pair.c1.NQubits)
			kr, err := verify.CheckOn(p, pair.c1, pair.c2, s)
			if err != nil {
				return nil, fmt.Errorf("%s/%v kernel: %w", pair.name, s, err)
			}
			// A construction build collects garbage; keep the kernel's
			// root live through the generic run.
			p.IncRefM(kr.Root)
			gr, err := verify.CheckOn(p, pair.c1, pair.c2, s, verify.WithGenericMM())
			p.DecRefM(kr.Root)
			if err != nil {
				return nil, fmt.Errorf("%s/%v generic: %w", pair.name, s, err)
			}
			if kr.Equivalent != gr.Equivalent || kr.UpToGlobalPhase != gr.UpToGlobalPhase {
				return nil, fmt.Errorf("%s/%v: verdicts differ (kernel %v/%v, generic %v/%v)",
					pair.name, s, kr.Equivalent, kr.UpToGlobalPhase, gr.Equivalent, gr.UpToGlobalPhase)
			}
			if !kr.Equivalent {
				return nil, fmt.Errorf("%s/%v: equivalent pair rejected", pair.name, s)
			}
			if kr.Root != gr.Root {
				return nil, fmt.Errorf("%s/%v: root edges differ between kernel and generic", pair.name, s)
			}
			st := p.Stats()
			ctHits += st.ApplyMCTHits
			kernelOps += uint64(kr.KernelOps)
			genericOps += uint64(gr.GenericOps)

			generic := timeVerify(pair, s, verify.WithGenericMM())
			kernel := timeVerify(pair, s)
			pairGeneric += generic
			pairKernel += kernel
			fmt.Fprintf(w, "%-12s %-13v %12s %12s %8.2fx\n",
				pair.name, s, generic, kernel, float64(generic)/float64(kernel))
		}
		totalGeneric += pairGeneric
		totalKernel += pairKernel
		sum["speedup_"+pair.name] = float64(pairGeneric) / float64(pairKernel)
		if sum["speedup_"+pair.name] > sum["speedup_v1_best"] {
			sum["speedup_v1_best"] = sum["speedup_"+pair.name]
		}
	}
	sum["speedup_v1"] = float64(totalGeneric) / float64(totalKernel)
	sum["applym_ct_hits"] = float64(ctHits)
	sum["kernel_ops"] = float64(kernelOps)
	sum["generic_ops"] = float64(genericOps)
	if ctHits == 0 {
		return nil, fmt.Errorf("matrix-apply compute table never hit during the cross-check runs")
	}
	if kernelOps == 0 || genericOps == 0 {
		return nil, fmt.Errorf("op accounting degenerate (kernel=%d generic=%d)", kernelOps, genericOps)
	}
	return sum, nil
}
