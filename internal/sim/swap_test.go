package sim

import (
	"errors"
	"reflect"
	"testing"

	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
)

// swapStepCircuit prepares an entangled 5-qubit state from distinct
// rotations and ends with a controlled SWAP of two distant qubits.
func swapStepCircuit() *qc.Circuit {
	c := qc.New(5, 0)
	for q := 0; q < 5; q++ {
		c.Gate(qc.RY, []float64{0.3 + 0.2*float64(q)}, q)
	}
	c.CX(0, 3)
	c.CX(2, 4)
	c.Gate(qc.RZ, []float64{0.9}, 1)
	c.Gate(qc.RX, []float64{0.4}, 4, qc.Control{Qubit: 0, Neg: true})
	c.SwapGate(4, 1, qc.Control{Qubit: 2})
	return c
}

// TestSwapStepBudgetAbort steps the final SWAP of swapStepCircuit under
// every node budget from 1 up to the unbudgeted peak. Each step must
// either yield the unbudgeted root or fail with ErrResourceExhausted
// and leave state, position, history and classical bits untouched —
// and the simulator must then still produce the unbudgeted root once
// the budget is lifted.
func TestSwapStepBudgetAbort(t *testing.T) {
	circ := swapStepCircuit()
	last := len(circ.Ops) - 1
	prepare := func() *Simulator {
		s := New(circ)
		for s.Pos() < last {
			if _, err := s.StepForward(); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// The step's peak is at most the nodes live before it plus those it
	// makes; the live count after it would miss any the step collected.
	probe := prepare()
	live, made := probe.Pkg().LiveNodes(), nodesMade(probe.Pkg())
	if _, err := probe.StepForward(); err != nil {
		t.Fatal(err)
	}
	peak := live + nodesMade(probe.Pkg()) - made

	var ok, aborted int
	for b := 1; b <= peak; b++ {
		s := prepare()
		p := s.Pkg()
		if _, err := s.StepForward(); err != nil {
			t.Fatal(err)
		}
		want := s.State()
		p.IncRefV(want)
		s.StepBackward()
		before, classical, hist := s.State(), s.Classical(), len(s.history)

		p.SetMaxNodes(b)
		_, err := s.StepForward()
		switch {
		case err == nil:
			ok++
			if s.State() != want || s.Pos() != last+1 {
				t.Fatalf("budget %d: step succeeded with a different root or position %d", b, s.Pos())
			}
			continue
		case !errors.Is(err, dd.ErrResourceExhausted):
			t.Fatalf("budget %d: %v", b, err)
		}
		aborted++
		if s.State() != before || s.Pos() != last || len(s.history) != hist || !reflect.DeepEqual(s.Classical(), classical) {
			t.Fatalf("budget %d: aborted step changed the simulator", b)
		}
		p.SetMaxNodes(0)
		if _, err := s.StepForward(); err != nil || s.State() != want {
			t.Fatalf("budget %d: unbudgeted retry after the abort: err=%v, same root %v", b, err, s.State() == want)
		}
	}
	if ok == 0 || aborted == 0 {
		t.Fatalf("budgets 1..%d: %d succeeded, %d aborted; want both outcomes", peak, ok, aborted)
	}
}

// nodesMade counts the nodes p has created.
func nodesMade(p *dd.Pkg) int {
	st := p.Stats()
	return int(st.NodesCreatedV + st.NodesCreatedM)
}

// TestNoisySwapHistogramPinned pins one seeded noisy ensemble of a
// circuit with plain and controlled SWAPs, recorded when the simulator
// still applied SWAP through its gate diagram. It must stay
// bit-identical with the kernel lowering.
func TestNoisySwapHistogramPinned(t *testing.T) {
	c := qc.New(4, 0)
	c.H(0)
	c.CX(0, 1)
	c.Gate(qc.RY, []float64{0.8}, 2)
	c.SwapGate(0, 3)
	c.SwapGate(1, 2, qc.Control{Qubit: 3})
	c.Gate(qc.RX, []float64{1.1}, 1)
	c.SwapGate(2, 0, qc.Control{Qubit: 1, Neg: true})
	c.CX(3, 2)
	res, err := RunNoisy(c, NoiseModel{Depolarizing: 0.03, BitFlip: 0.01}, 400, 29, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int{
		0: 92, 1: 31, 2: 44, 3: 2, 4: 3, 5: 4, 6: 13, 7: 4,
		8: 10, 9: 10, 10: 64, 11: 5, 12: 13, 13: 91, 14: 9, 15: 5,
	}
	if !reflect.DeepEqual(res.Counts, want) || res.ErrorEvents != 218 || res.MeanNodes != 8.9025 {
		t.Fatalf("noisy SWAP ensemble changed: counts %#v, error events %d, mean nodes %v", res.Counts, res.ErrorEvents, res.MeanNodes)
	}
}
