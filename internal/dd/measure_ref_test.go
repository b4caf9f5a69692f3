package dd

import (
	"fmt"
	"math/rand"
	"testing"
)

// A frozen copy of the dedicated measurement recursions Collapse and
// ResetTo ran before they became projections through the gate kernel:
// collapse rebuilt the diagram with the other branch of the measured
// level zeroed, and a reset to |0⟩ after outcome 1 swapped that
// level's branches in a second walk. TestProjectionsMatchReference
// holds the kernel to these results bit for bit.

func refCollapse(p *Pkg, e VEdge, q, outcome int) (VEdge, error) {
	if outcome != 0 && outcome != 1 {
		return VZero(), fmt.Errorf("dd: measurement outcome must be 0 or 1, got %d", outcome)
	}
	if e.IsZero() {
		return VZero(), fmt.Errorf("dd: cannot collapse the zero vector")
	}
	memo := make(map[*VNode]VEdge)
	collapsed := refCollapseRec(p, VEdge{W: 1, N: e.N}, q, outcome, memo)
	if collapsed.IsZero() {
		return VZero(), fmt.Errorf("dd: outcome %d for qubit %d has probability zero", outcome, q)
	}
	scale := Norm(e) / Norm(collapsed)
	phase := e.W / complex(Norm(e), 0)
	return p.rootV(VEdge{W: collapsed.W * complex(scale, 0) * phase, N: collapsed.N}), nil
}

func refCollapseRec(p *Pkg, e VEdge, q, outcome int, memo map[*VNode]VEdge) VEdge {
	if e.IsZero() || e.N == vTerminal {
		return e
	}
	if res, ok := memo[e.N]; ok {
		return VEdge{W: res.W * e.W, N: res.N}
	}
	var kids [2]VEdge
	if e.N.V == q {
		kids[outcome] = e.N.E[outcome]
		kids[1-outcome] = VZero()
	} else {
		for i := 0; i < 2; i++ {
			kids[i] = refCollapseRec(p, e.N.E[i], q, outcome, memo)
		}
	}
	res := p.makeVNode(e.N.V, kids)
	memo[e.N] = res
	return VEdge{W: res.W * e.W, N: res.N}
}

func refApplyX(p *Pkg, e VEdge, q int) VEdge {
	memo := make(map[*VNode]VEdge)
	res := refApplyXRec(p, VEdge{W: 1, N: e.N}, q, memo)
	return p.rootV(VEdge{W: res.W * e.W, N: res.N})
}

func refApplyXRec(p *Pkg, e VEdge, q int, memo map[*VNode]VEdge) VEdge {
	if e.IsZero() || e.N == vTerminal {
		return e
	}
	if res, ok := memo[e.N]; ok {
		return VEdge{W: res.W * e.W, N: res.N}
	}
	var kids [2]VEdge
	if e.N.V == q {
		kids = [2]VEdge{e.N.E[1], e.N.E[0]}
	} else {
		for i := 0; i < 2; i++ {
			kids[i] = refApplyXRec(p, e.N.E[i], q, memo)
		}
	}
	res := p.makeVNode(e.N.V, kids)
	memo[e.N] = res
	return VEdge{W: res.W * e.W, N: res.N}
}

func refResetTo(p *Pkg, e VEdge, q, outcome int) (VEdge, error) {
	res, err := refCollapse(p, e, q, outcome)
	if err != nil {
		return VZero(), err
	}
	if outcome == 1 {
		res = refApplyX(p, res, q)
	}
	return res, nil
}

// projectionAmps draws the amplitudes of a random state: dense ones
// have every amplitude nonzero, sparse ones about one in five, with
// at least one.
func projectionAmps(rng *rand.Rand, n int, dense bool) []complex128 {
	amps := make([]complex128, 1<<uint(n))
	for i := range amps {
		if dense || rng.Float64() < 0.2 {
			amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	amps[rng.Intn(len(amps))] = complex(rng.NormFloat64(), 1)
	return amps
}

// TestProjectionsMatchReference compares Collapse and ResetTo with the
// frozen recursions on random dense and sparse states of 3–8 qubits,
// on every qubit and for both outcomes. Each side builds the state on
// a fresh package, so neither sees the other's nodes or tables; the
// results must agree in error, root weight, node count and every
// amplitude, bit for bit.
func TestProjectionsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2108))
	ops := []struct {
		name      string
		got, want func(p *Pkg, e VEdge, q, o int) (VEdge, error)
	}{
		{"Collapse", (*Pkg).Collapse, refCollapse},
		{"ResetTo", (*Pkg).ResetTo, refResetTo},
	}
	cases, zero := 0, 0
	for n := 3; n <= 8; n++ {
		for _, dense := range []bool{true, false} {
			for rep := 0; rep < 2; rep++ {
				amps := projectionAmps(rng, n, dense)
				for q := 0; q < n; q++ {
					for o := 0; o < 2; o++ {
						for _, op := range ops {
							run := func(f func(p *Pkg, e VEdge, q, o int) (VEdge, error)) (VEdge, []complex128, error) {
								p := New(n)
								e, err := p.FromVector(amps)
								if err != nil {
									t.Fatal(err)
								}
								res, err := f(p, e, q, o)
								if err != nil {
									return res, nil, err
								}
								return res, p.Vector(res), nil
							}
							got, gotAmps, gotErr := run(op.got)
							want, wantAmps, wantErr := run(op.want)
							name := fmt.Sprintf("%s n=%d dense=%v rep=%d q=%d o=%d", op.name, n, dense, rep, q, o)
							cases++
							if (gotErr != nil) != (wantErr != nil) {
								t.Fatalf("%s: err %v, reference %v", name, gotErr, wantErr)
							}
							if wantErr != nil {
								if gotErr.Error() != wantErr.Error() {
									t.Fatalf("%s: err %q, reference %q", name, gotErr, wantErr)
								}
								zero++
								continue
							}
							if got.W != want.W || SizeV(got) != SizeV(want) {
								t.Fatalf("%s: root weight %v size %d, reference %v size %d", name, got.W, SizeV(got), want.W, SizeV(want))
							}
							for i := range wantAmps {
								if gotAmps[i] != wantAmps[i] {
									t.Fatalf("%s: amplitude %d = %v, reference %v", name, i, gotAmps[i], wantAmps[i])
								}
							}
						}
					}
				}
			}
		}
	}
	if zero == 0 || zero == cases {
		t.Fatalf("%d of %d cases had a zero-probability outcome; the grid must cover both", zero, cases)
	}
	t.Logf("%d projections, %d of them onto a zero-probability outcome", cases, zero)
	// Out-of-range outcomes and the zero vector fail as before.
	p := New(3)
	for _, op := range ops {
		if _, err := op.got(p, p.ZeroState(), 0, 2); err == nil {
			t.Errorf("%s accepted outcome 2", op.name)
		}
		if _, err := op.got(p, VZero(), 0, 0); err == nil {
			t.Errorf("%s accepted the zero vector", op.name)
		}
	}
}
