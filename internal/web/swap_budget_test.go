package web

import (
	"context"
	"errors"
	"testing"

	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
)

// swapSideCircuit entangles four qubits and ends with a controlled
// SWAP of two distant qubits.
func swapSideCircuit(angle float64) *qc.Circuit {
	c := qc.New(4, 0)
	c.H(0)
	c.CX(0, 2)
	c.Gate(qc.RY, []float64{angle}, 1)
	c.Gate(qc.RZ, []float64{angle / 2}, 3, qc.Control{Qubit: 1})
	c.SwapGate(3, 0, qc.Control{Qubit: 2})
	return c
}

// TestVerifySwapStepBudgetAbort steps a verification session's SWAP on
// each side under every node budget from 1 up to the unbudgeted peak.
// Each step must either yield the unbudgeted diagram or fail with
// ErrResourceExhausted and leave the diagram, both positions and the
// undo history untouched — and the session must then still reach the
// unbudgeted diagram once the budget is lifted.
func TestVerifySwapStepBudgetAbort(t *testing.T) {
	left, right := swapSideCircuit(0.7), swapSideCircuit(1.9)
	ctx := context.Background()
	for _, side := range []string{"left", "right"} {
		// prepare steps every gate of both sides before the SWAPs, then
		// the other side's SWAP, so the tested SWAP acts on a diagram
		// far from the identity.
		prepare := func() *verifySession {
			v, err := newVerifySession(left, right, "", "", "", 0)
			if err != nil {
				t.Fatal(err)
			}
			last := len(left.Ops) - 1
			for li, ri := v.m.Pos(); li < last || ri < last; li, ri = v.m.Pos() {
				for s, pos := range [2]int{li, ri} {
					if pos < last {
						if _, err := v.stepSide(ctx, []string{"left", "right"}[s]); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			other := "right"
			if side == "right" {
				other = "left"
			}
			if _, err := v.stepSide(ctx, other); err != nil {
				t.Fatal(err)
			}
			return v
		}
		// The step's peak is at most the nodes live before it plus
		// those it makes; the live count after it would miss any the
		// step collected.
		probe := prepare()
		p := probe.m.Pkg()
		st := p.Stats()
		peak := p.LiveNodes() - int(st.NodesCreatedV+st.NodesCreatedM)
		if _, err := probe.stepSide(ctx, side); err != nil {
			t.Fatal(err)
		}
		st = p.Stats()
		peak += int(st.NodesCreatedV + st.NodesCreatedM)

		var ok, aborted int
		for b := 1; b <= peak; b++ {
			v := prepare()
			if _, err := v.stepSide(ctx, side); err != nil {
				t.Fatal(err)
			}
			want := v.m.X()
			v.m.Pkg().IncRefM(want)
			v.stepBack()
			x, hist := v.m.X(), len(v.history)
			li, ri := v.m.Pos()

			v.m.Pkg().SetMaxNodes(b)
			_, err := v.stepSide(ctx, side)
			switch {
			case err == nil:
				ok++
				if v.m.X() != want {
					t.Fatalf("%s, budget %d: step succeeded with a different diagram", side, b)
				}
				continue
			case !errors.Is(err, dd.ErrResourceExhausted):
				t.Fatalf("%s, budget %d: %v", side, b, err)
			}
			aborted++
			if gli, gri := v.m.Pos(); v.m.X() != x || gli != li || gri != ri || len(v.history) != hist {
				t.Fatalf("%s, budget %d: aborted step changed the session", side, b)
			}
			v.m.Pkg().SetMaxNodes(0)
			if _, err := v.stepSide(ctx, side); err != nil || v.m.X() != want {
				t.Fatalf("%s, budget %d: unbudgeted retry after the abort: err=%v, same diagram %v", side, b, err, v.m.X() == want)
			}
		}
		if ok == 0 || aborted == 0 {
			t.Fatalf("%s, budgets 1..%d: %d succeeded, %d aborted; want both outcomes", side, peak, ok, aborted)
		}
	}
}
