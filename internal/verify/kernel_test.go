package verify

import (
	"errors"
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

// TestKernelMatchesGenericAllStrategies is the end-to-end differential
// test of the verify core: on one shared package (canonicity holds per
// package), the kernel route and the WithGenericMM oracle must agree
// on verdict, phase flag, AND the exact final root edge, for every
// strategy, on equivalent and non-equivalent pairs alike.
func TestKernelMatchesGenericAllStrategies(t *testing.T) {
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
			p := dd.New(pair.c1.NQubits)
			kr, err := CheckOn(p, pair.c1, pair.c2, s)
			if err != nil {
				t.Fatalf("%s/%v kernel: %v", pair.name, s, err)
			}
			// A construction build collects garbage: only a referenced
			// root survives the second run.
			p.IncRefM(kr.Root)
			gr, err := CheckOn(p, pair.c1, pair.c2, s, WithGenericMM())
			if err != nil {
				t.Fatalf("%s/%v generic: %v", pair.name, s, err)
			}
			if !kr.Equivalent || !gr.Equivalent {
				t.Fatalf("%s/%v: equivalent pair rejected (kernel=%v generic=%v)",
					pair.name, s, kr.Equivalent, gr.Equivalent)
			}
			if kr.UpToGlobalPhase != gr.UpToGlobalPhase {
				t.Fatalf("%s/%v: phase flags differ", pair.name, s)
			}
			if kr.Root != gr.Root {
				t.Fatalf("%s/%v: root edges differ: kernel (%v,%p) vs generic (%v,%p)",
					pair.name, s, kr.Root.W, kr.Root.N, gr.Root.W, gr.Root.N)
			}
			if kr.KernelOps == 0 || kr.GenericOps != 0 {
				t.Fatalf("%s/%v: kernel run counted kernel=%d generic=%d", pair.name, s, kr.KernelOps, kr.GenericOps)
			}
			if gr.GenericOps == 0 || gr.KernelOps != 0 {
				t.Fatalf("%s/%v: generic run counted kernel=%d generic=%d", pair.name, s, gr.KernelOps, gr.GenericOps)
			}
		}
	}
}

// TestKernelDetectsNonEquivalence: a mutated pair must be rejected
// identically by both engines, with identical final roots.
func TestKernelDetectsNonEquivalence(t *testing.T) {
	c1 := algorithms.QFT(4)
	c2 := algorithms.QFTCompiled(4)
	c2.X(2) // inject a fault
	for _, s := range allStrategies {
		p := dd.New(4)
		kr, err := CheckOn(p, c1, c2, s)
		if err != nil {
			t.Fatalf("%v kernel: %v", s, err)
		}
		gr, err := CheckOn(p, c1, c2, s, WithGenericMM())
		if err != nil {
			t.Fatalf("%v generic: %v", s, err)
		}
		if kr.Equivalent || gr.Equivalent {
			t.Fatalf("%v: faulty pair accepted (kernel=%v generic=%v)", s, kr.Equivalent, gr.Equivalent)
		}
		if kr.Root != gr.Root {
			t.Fatalf("%v: root edges differ on non-equivalent pair", s)
		}
	}
}

// TestKernelSwapOps: circuits containing SWAP route through the
// three-CNOT kernel decomposition and still match the generic path,
// which lowers SWAP via MakeSwapDD.
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
	for _, s := range allStrategies {
		p := dd.New(4)
		kr, err := CheckOn(p, c1, c2, s)
		if err != nil {
			t.Fatalf("%v kernel: %v", s, err)
		}
		gr, err := CheckOn(p, c1, c2, s, WithGenericMM())
		if err != nil {
			t.Fatalf("%v generic: %v", s, err)
		}
		if !kr.Equivalent || kr.Root != gr.Root {
			t.Fatalf("%v: swap pair: equiv=%v rootsEqual=%v", s, kr.Equivalent, kr.Root == gr.Root)
		}
	}
}

// TestBuildFunctionalityKernel: the construction path through the
// kernel produces the same functionality diagram as the generic one.
func TestBuildFunctionalityKernel(t *testing.T) {
	c := algorithms.QFT(4)
	p := dd.New(4)
	uk, _, err := BuildFunctionality(p, c)
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	ug, _, err := BuildFunctionality(p, c, WithGenericMM())
	if err != nil {
		t.Fatalf("generic: %v", err)
	}
	if uk != ug {
		t.Fatalf("functionality diagrams differ between engines")
	}
}

// TestKernelBudgetPartialProgress: when the node budget runs out
// mid-build, both engines must surface dd.ErrResourceExhausted while
// keeping the per-step records accumulated before the failing gate —
// the partial-progress contract the web verify tab's undo relies on.
func TestKernelBudgetPartialProgress(t *testing.T) {
	c := algorithms.QFT(7)
	for _, generic := range []bool{false, true} {
		var opts []Option
		if generic {
			opts = append(opts, WithGenericMM())
		}
		p := dd.New(7)
		p.SetMaxNodes(40)
		_, recs, err := BuildFunctionality(p, c, opts...)
		if !errors.Is(err, dd.ErrResourceExhausted) {
			t.Fatalf("generic=%v: err = %v, want ErrResourceExhausted", generic, err)
		}
		if len(recs) == 0 {
			t.Fatalf("generic=%v: no partial step records survived the budget failure", generic)
		}
		for i, r := range recs {
			if r.Nodes <= 0 || r.Gate == "" {
				t.Fatalf("generic=%v: record %d degenerate: %+v", generic, i, r)
			}
		}
	}
}
