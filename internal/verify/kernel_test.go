package verify

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
)

// recompileCX rewrites every singly-controlled X as H·CZ·H — a
// provably equivalent compilation, so (c, recompileCX(c)) forms an
// equivalent pair with different gate sequences, the shape the
// alternating scheme is designed for.
func recompileCX(c *qc.Circuit) *qc.Circuit {
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

// checkTwice runs the check of (c1, c2) under s twice on one package
// and holds both runs to the dense baseline: the verdict and phase
// flag of the dense operators, and the final operator within 1e-10.
// CheckOn hands the first root back referenced, so it survives the
// second run, which may collect, and the second run must return the
// same canonical root.
func checkTwice(t *testing.T, name string, c1, c2 *qc.Circuit, s Strategy) *Result {
	t.Helper()
	p := dd.New(c1.NQubits)
	first, err := CheckOn(p, c1, c2, s)
	if err != nil {
		t.Fatalf("%s/%v: %v", name, s, err)
	}
	defer p.DecRefM(first.Root)
	second, err := CheckOn(p, c1, c2, s)
	if err != nil {
		t.Fatalf("%s/%v second run: %v", name, s, err)
	}
	defer p.DecRefM(second.Root)
	equiv, phase := denseVerdict(t, c1, c2)
	if first.Equivalent != equiv || first.UpToGlobalPhase != phase {
		t.Fatalf("%s/%v: verdict %v/%v, dense %v/%v", name, s, first.Equivalent, first.UpToGlobalPhase, equiv, phase)
	}
	checkDense(t, fmt.Sprintf("%s/%v", name, s), p, first.Root, denseRoot(t, c1, c2, s), 1e-10)
	if second.Root != first.Root {
		t.Fatalf("%s/%v: root edges differ between two runs: (%v,%p) vs (%v,%p)",
			name, s, first.Root.W, first.Root.N, second.Root.W, second.Root.N)
	}
	if first.KernelOps == 0 || second.KernelOps != first.KernelOps {
		t.Fatalf("%s/%v: kernel ops %d then %d", name, s, first.KernelOps, second.KernelOps)
	}
	return first
}

// TestKernelMatchesDenseAllStrategies is the end-to-end test of the
// verify core against the dense baseline, for every strategy, on
// equivalent pairs with different gate sequences.
func TestKernelMatchesDenseAllStrategies(t *testing.T) {
	pairs := []struct {
		name   string
		c1, c2 *qc.Circuit
	}{
		{"qft5", algorithms.QFT(5), algorithms.QFTCompiled(5)},
		{"ghz7", algorithms.GHZ(7), recompileCX(algorithms.GHZ(7))},
		{"random6", algorithms.RandomCircuit(6, 4, 11), recompileCX(algorithms.RandomCircuit(6, 4, 11))},
	}
	for _, pair := range pairs {
		for _, s := range allStrategies {
			if r := checkTwice(t, pair.name, pair.c1, pair.c2, s); !r.Equivalent {
				t.Fatalf("%s/%v: equivalent pair rejected", pair.name, s)
			}
		}
	}
}

// TestKernelDetectsNonEquivalence: a mutated pair must be rejected by
// every strategy, with the final operator of the dense baseline.
func TestKernelDetectsNonEquivalence(t *testing.T) {
	c1 := algorithms.QFT(4)
	c2 := algorithms.QFTCompiled(4)
	c2.X(2) // inject a fault
	for _, s := range allStrategies {
		if r := checkTwice(t, "faulty", c1, c2, s); r.Equivalent {
			t.Fatalf("%v: faulty pair accepted", s)
		}
	}
}

// TestKernelSwapOps: circuits containing SWAP route through the
// three-CNOT kernel decomposition, so a SWAP counts three kernel ops;
// the verdict and the functionality match the dense baseline.
func TestKernelSwapOps(t *testing.T) {
	c1 := qc.New(4, 0)
	c1.Name = "swapped"
	c1.H(0)
	c1.SwapGate(0, 3)
	c1.X(1, qc.Control{Qubit: 3})
	c2 := qc.New(4, 0)
	c2.Name = "cx-form"
	c2.H(0)
	c2.X(3, qc.Control{Qubit: 0})
	c2.X(0, qc.Control{Qubit: 3})
	c2.X(3, qc.Control{Qubit: 0})
	c2.X(1, qc.Control{Qubit: 3})
	const ops = 2 * 5 // H, SWAP as three CNOTs and CX on either side
	for _, s := range allStrategies {
		r := checkTwice(t, "swap", c1, c2, s)
		if !r.Equivalent {
			t.Fatalf("%v: swap pair rejected", s)
		}
		// Lookahead also applies the probe it discards.
		if r.KernelOps != ops && (s != Lookahead || r.KernelOps < ops) {
			t.Fatalf("%v: %d kernel ops, want %d", s, r.KernelOps, ops)
		}
	}
	p := dd.New(4)
	u, _, err := BuildFunctionality(p, c1)
	if err != nil {
		t.Fatal(err)
	}
	checkDense(t, "swap functionality", p, u, denseOperator(t, c1), 1e-10)
}

// TestBuildFunctionalityKernel: the kernel build of QFT(4) is the dense
// operator, and a second build on the same package, with the first
// root referenced, returns the same canonical root.
func TestBuildFunctionalityKernel(t *testing.T) {
	c := algorithms.QFT(4)
	p := dd.New(4)
	u1, _, err := BuildFunctionality(p, c)
	if err != nil {
		t.Fatal(err)
	}
	p.IncRefM(u1)
	defer p.DecRefM(u1)
	checkDense(t, "qft4", p, u1, denseOperator(t, c), 1e-10)
	u2, _, err := BuildFunctionality(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if u1 != u2 {
		t.Fatalf("two builds of one circuit returned different roots")
	}
}

// TestKernelBudgetPartialProgress: when the node budget runs out
// mid-build, the build must surface dd.ErrResourceExhausted while
// keeping the per-step records accumulated before the failing gate —
// the partial-progress contract the web verify tab's undo relies on.
func TestKernelBudgetPartialProgress(t *testing.T) {
	p := dd.New(7)
	p.SetMaxNodes(40)
	_, recs, err := BuildFunctionality(p, algorithms.QFT(7))
	if !errors.Is(err, dd.ErrResourceExhausted) {
		t.Fatalf("err = %v, want ErrResourceExhausted", err)
	}
	if len(recs) == 0 {
		t.Fatalf("no partial step records survived the budget failure")
	}
	for i, r := range recs {
		if r.Nodes <= 0 || r.Gate == "" {
			t.Fatalf("record %d degenerate: %+v", i, r)
		}
	}
}

// TestCheckUnderBudgetAllStrategies: every strategy applies its gates
// under the node budget, the alternating ones included. A budget one
// node below the unbudgeted peak of G·G′⁻¹ fails the check with
// dd.ErrResourceExhausted and leaves no reference behind, and the same
// package, with the budget lifted, then reaches the unbudgeted run's
// root, peak, trace and kernel-op count. Budgets from the peak up,
// under which the checked kernels collect garbage, each either fail
// or reach that result too: nothing a strategy still needs, such as
// lookahead's first probe while it computes the second, is swept.
func TestCheckUnderBudgetAllStrategies(t *testing.T) {
	c1, c2 := algorithms.QFT(5), algorithms.QFTCompiled(5)
	for _, s := range allStrategies {
		pFree := dd.New(c1.NQubits)
		free, err := CheckOn(pFree, c1, c2, s)
		if err != nil {
			t.Fatalf("%v unbudgeted: %v", s, err)
		}
		// Canonical diagrams serialize to equal bytes exactly when they
		// are the same diagram, across packages too.
		root := pFree.AppendMatrixBinary(nil, free.Root)
		same := func(p *dd.Pkg, r *Result) bool {
			return r.Equivalent && r.PeakNodes == free.PeakNodes && r.KernelOps == free.KernelOps &&
				reflect.DeepEqual(r.Trace, free.Trace) && bytes.Equal(p.AppendMatrixBinary(nil, r.Root), root)
		}

		p := dd.New(c1.NQubits)
		p.SetMaxNodes(free.PeakNodes - 1)
		if _, err := CheckOn(p, c1, c2, s); !errors.Is(err, dd.ErrResourceExhausted) {
			t.Fatalf("%v under a budget of %d nodes (peak %d): err = %v, want ErrResourceExhausted", s, free.PeakNodes-1, free.PeakNodes, err)
		}
		if p.GarbageCollect(); p.LiveNodes() != 0 {
			t.Fatalf("%v: the failed check left %d nodes referenced", s, p.LiveNodes())
		}
		p.SetMaxNodes(0)
		if again, err := CheckOn(p, c1, c2, s); err != nil || !same(p, again) {
			t.Fatalf("%v rerun without a budget: err %v, or a result other than the unbudgeted run's", s, err)
		}

		passed := 0
		for b := free.PeakNodes; b <= 6*free.PeakNodes; b += max(1, free.PeakNodes/16) {
			p := dd.New(c1.NQubits)
			p.SetMaxNodes(b)
			r, err := CheckOn(p, c1, c2, s)
			switch {
			case errors.Is(err, dd.ErrResourceExhausted):
			case err != nil:
				t.Fatalf("%v, budget %d: %v", s, b, err)
			case !same(p, r):
				t.Fatalf("%v, budget %d: the check passed with a result other than the unbudgeted run's", s, b)
			default:
				passed++
			}
		}
		if passed == 0 {
			t.Fatalf("%v: no budget up to 6× the peak of %d nodes let the check pass", s, free.PeakNodes)
		}
	}
}
