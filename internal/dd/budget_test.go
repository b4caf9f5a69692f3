package dd

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// phaseGate returns the diag(1, e^{iθ}) matrix.
func phaseGate(theta float64) GateMatrix {
	return GateMatrix{1, 0, 0, cmplx.Exp(complex(0, theta))}
}

// applyBlowUp drives the GHZ preamble followed by an all-pairs
// controlled-phase layer with pairwise distinct angles. The resulting
// state Σ_x e^{iφ(x)}|x⟩ has a generic quadratic phase polynomial, so
// no two sub-vectors share structure and the diagram grows towards
// 2^n nodes — the canonical adversarial input for a node budget.
func applyBlowUp(t *testing.T, p *Pkg, n int) (trippedAt int, err error) {
	t.Helper()
	state := p.ZeroState()
	p.IncRefV(state)
	gates := 0
	apply := func(u GateMatrix, target int, ctl ...Control) error {
		next, err := p.ApplyGateChecked(state, u, target, ctl...)
		if err != nil {
			return err
		}
		p.IncRefV(next)
		p.DecRefV(state)
		state = next
		gates++
		return nil
	}
	// GHZ: H on top qubit, CX chain downwards.
	if err := apply(gateH, n-1); err != nil {
		return gates, err
	}
	for q := n - 2; q >= 0; q-- {
		if err := apply(gateX, q, Control{Qubit: q + 1}); err != nil {
			return gates, err
		}
	}
	// QFT-flavoured blow-up: H plus distinct controlled phases.
	for q := 0; q < n; q++ {
		if err := apply(gateH, q); err != nil {
			return gates, err
		}
	}
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k++
			theta := math.Pi / math.Sqrt(float64(k)+1.5)
			if err := apply(phaseGate(theta), j, Control{Qubit: i}); err != nil {
				return gates, err
			}
		}
	}
	return gates, nil
}

func TestMaxNodesTripsDeterministically(t *testing.T) {
	const n, budget = 10, 200

	run := func() (int, error) {
		p := New(n)
		p.SetMaxNodes(budget)
		return applyBlowUp(t, p, n)
	}
	at1, err1 := run()
	if err1 == nil {
		t.Fatalf("blow-up circuit finished %d gates without tripping the %d-node budget", at1, budget)
	}
	if !errors.Is(err1, ErrResourceExhausted) {
		t.Fatalf("error %v does not match ErrResourceExhausted", err1)
	}
	var re *ResourceError
	if !errors.As(err1, &re) {
		t.Fatalf("error %v is not a *ResourceError", err1)
	}
	if re.Limit != budget || re.Nodes < budget {
		t.Fatalf("ResourceError reports nodes=%d limit=%d, want nodes >= limit = %d", re.Nodes, re.Limit, budget)
	}
	// Deterministic: a second run trips at the same gate.
	at2, err2 := run()
	if err2 == nil || at1 != at2 {
		t.Fatalf("budget trip not deterministic: first at gate %d (%v), then at gate %d (%v)", at1, err1, at2, err2)
	}
}

func TestBudgetAbortLeavesPackageUsable(t *testing.T) {
	const n = 10
	p := New(n)
	// The last good state stays referenced and holds 152 nodes: the
	// budget leaves room for the follow-up below.
	p.SetMaxNodes(200)
	if _, err := applyBlowUp(t, p, n); err == nil {
		t.Fatal("expected the budget to trip")
	}
	if p.LiveNodes() > p.MaxNodes() {
		// The abort garbage-collects intermediates; only referenced
		// diagrams may remain.
		t.Fatalf("after abort %d live nodes exceed the budget of %d", p.LiveNodes(), p.MaxNodes())
	}
	// Small follow-up operations must still succeed: the budget bounds
	// table growth, it does not poison the package.
	st := p.ZeroState()
	out, err := p.ApplyGateChecked(st, gateH, 0)
	if err != nil {
		t.Fatalf("small op after abort failed: %v", err)
	}
	if SizeV(out) == 0 {
		t.Fatal("small op after abort returned an empty diagram")
	}
}

func TestUncheckedOpsIgnoreBudget(t *testing.T) {
	p := New(4)
	p.SetMaxNodes(1)
	// The unchecked path must not panic even with an absurd budget —
	// existing batch tools rely on it.
	st := p.MultMV(p.MakeGateDD(gateH, 0), p.ZeroState())
	if SizeV(st) == 0 {
		t.Fatal("unchecked op failed")
	}
}

func TestCheckedOpsWithoutBudgetBehaveLikeUnchecked(t *testing.T) {
	p := New(3)
	a := p.MultMV(p.MakeGateDD(gateH, 2), p.ZeroState())
	b, err := p.ApplyGateChecked(p.ZeroState(), gateH, 2)
	if err != nil {
		t.Fatalf("checked op errored without a budget: %v", err)
	}
	if a != b {
		t.Fatal("checked and unchecked results differ (canonicity violated)")
	}
	m, err := p.MultMMChecked(p.MakeGateDD(gateX, 0), p.Ident())
	if err != nil || m.IsZero() {
		t.Fatalf("MultMMChecked failed: %v", err)
	}
}

// TestMultMMCheckedCountsOnce checks MultMMOps under the budget: a
// product aborted by a genuine blow-up counts nothing, and one that
// MultMMChecked re-runs after its abort's collection freed stale
// garbage counts once.
func TestMultMMCheckedCountsOnce(t *testing.T) {
	const n = 5
	p := New(n)
	// Build an operator of distinct controlled phases; every product
	// on the way leaves its intermediates behind as garbage.
	u := p.Ident()
	k := 0
	for i := 0; i < n; i++ {
		u = p.MultMM(p.MakeGateDD(gateH, i), u)
		for j := i + 1; j < n; j++ {
			k++
			u = p.MultMM(p.MakeGateDD(phaseGate(math.Pi/math.Sqrt(float64(k)+1.5)), j, Control{Qubit: i}), u)
		}
	}
	p.IncRefM(u)
	h := p.MakeGateDD(gateH, 0)
	p.IncRefM(h)

	// One node of headroom: the product aborts, the collection frees
	// the garbage, and the re-run fits.
	p.SetMaxNodes(p.LiveNodes() + 1)
	before := p.Stats()
	if _, err := p.MultMMChecked(h, u); err != nil {
		t.Fatalf("retried product: %v", err)
	}
	st := p.Stats()
	if st.GCRuns == before.GCRuns {
		t.Fatal("the product was not retried after a collection")
	}
	if got := st.MultMMOps - before.MultMMOps; got != 1 {
		t.Fatalf("retried product counted %d MultMMOps, want 1", got)
	}

	// With no garbage left, the same headroom is a genuine blow-up.
	p.GarbageCollect()
	p.SetMaxNodes(p.LiveNodes() + 1)
	before = p.Stats()
	if _, err := p.MultMMChecked(p.MakeGateDD(gateH, 1), u); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("product with one node of headroom: err %v, want ErrResourceExhausted", err)
	}
	if got := p.Stats().MultMMOps - before.MultMMOps; got != 0 {
		t.Fatalf("aborted product counted %d MultMMOps, want 0", got)
	}
}

// TestProjectionsHonourBudget runs measurement and reset under a node
// budget ten nodes above a random 10-qubit state: collapsing qubit 0
// rebuilds every level above it, so both projections must abort with
// ErrResourceExhausted and leave the tables within the budget.
func TestProjectionsHonourBudget(t *testing.T) {
	const n = 10
	p := New(n)
	e := randState(t, p, rand.New(rand.NewSource(38)), n)
	p.IncRefV(e)
	p.GarbageCollect()
	p.SetMaxNodes(p.LiveNodes() + 10)
	for _, tc := range []struct {
		name string
		run  func() (VEdge, error)
	}{
		{"ResetTo", func() (VEdge, error) { return p.ResetTo(e, 0, 1) }},
		{"Collapse", func() (VEdge, error) { return p.Collapse(e, 0, 1) }},
	} {
		if _, err := tc.run(); !errors.Is(err, ErrResourceExhausted) {
			t.Errorf("%s under a budget of %d: err = %v, want ErrResourceExhausted", tc.name, p.MaxNodes(), err)
		}
		if p.LiveNodes() > p.MaxNodes() {
			t.Errorf("%s left %d live nodes, budget %d", tc.name, p.LiveNodes(), p.MaxNodes())
		}
	}
}
