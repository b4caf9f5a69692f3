package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
)

// The whole-trajectory loop below is the reference implementation of
// the prefix-shared pool: every trajectory simulates the circuit from
// |0…0⟩ on a package collected after every trajectory, so each one
// starts from an empty package and cold compute tables.

// runOneTrajectory simulates trajectory index tr on the engine
// replica: every random draw (measurement outcomes, Pauli error
// sampling, the final basis-state sample) comes from rng, the
// trajectory's private counter-seeded stream.
func runOneTrajectory(ctx context.Context, pkg *dd.Pkg, circ *qc.Circuit, model NoiseModel, tr int, rng *rand.Rand, opts []Option) (out trajectoryOutcome) {
	out.index = tr
	s := newOn(pkg, circ, rng, opts...)
	defer s.release()
	s.replica = true
	noiseless := model.IsZero()
	for !s.AtEnd() {
		if err := ctx.Err(); err != nil {
			out.err = err
			return out
		}
		op := &circ.Ops[s.Pos()]
		if _, err := s.StepForward(); err != nil {
			out.err = err
			return out
		}
		if op.Kind != qc.KindGate || noiseless {
			continue
		}
		for _, q := range op.Targets {
			if err := injectSampledError(s, rng, model, q, &out); err != nil {
				return out
			}
		}
		for _, ctl := range op.Controls {
			if err := injectSampledError(s, rng, model, ctl.Qubit, &out); err != nil {
				return out
			}
		}
	}
	out.sample = dd.Sample(s.State(), rng)
	out.nodes = dd.SizeV(s.State())
	return out
}

// injectSampledError draws one error gate for qubit q and applies it,
// recording the event on the outcome. A non-nil return means the
// trajectory is over (budget exhaustion on the injected gate).
func injectSampledError(s *Simulator, rng *rand.Rand, model NoiseModel, q int, out *trajectoryOutcome) error {
	g := samplePauli(rng, model)
	if g == qc.GateNone {
		return nil
	}
	out.events++
	if err := s.injectGate(g, q); err != nil {
		out.err = err
		return err
	}
	return nil
}

// runNoisyReference runs the ensemble sequentially through the
// reference loop and returns its result with the first trajectory
// error, if any.
func runNoisyReference(circ *qc.Circuit, model NoiseModel, trajectories int, seed int64, opts ...Option) (*NoisyResult, error) {
	pkg := dd.New(circ.NQubits)
	src := &pcgSource{}
	rng := rand.New(src)
	acc := newEnsembleAccum()
	for tr := 0; tr < trajectories; tr++ {
		src.seedTrajectory(seed, tr)
		acc.add(runOneTrajectory(context.Background(), pkg, circ, model, tr, rng, opts))
		pkg.GarbageCollect()
	}
	return acc.result(trajectories, 1), acc.firstErr
}

// resetFeedForward exercises every branch kind of the trie: a reset
// of a qubit in superposition, a mid-circuit measurement, and a
// classically controlled gate fed by it.
func resetFeedForward() *qc.Circuit {
	c := qc.New(3, 2)
	c.Name = "reset_feed_forward"
	c.H(0).CX(0, 1)
	c.Reset(0)
	c.H(0).Gate(qc.RY, []float64{0.7}, 2)
	c.Measure(1, 0)
	c.GateIf(qc.X, nil, 2, []int{0}, 1)
	c.Measure(0, 1)
	c.GateIf(qc.H, nil, 1, []int{1}, 1)
	c.CX(2, 0)
	return c
}

// TestPrefixSharedMatchesReference is the differential test of the
// prefix-shared pool against the whole-trajectory reference loop: with
// no budget and with the server's, every merged quantity is
// bit-identical at 1 and 3 workers. Under a tight budget the pinned
// trie counts against the budget, so verdicts may differ from the
// reference; there the result must still be worker-invariant.
func TestPrefixSharedMatchesReference(t *testing.T) {
	circuits := []*qc.Circuit{
		algorithms.GHZ(14),
		algorithms.Teleport(1.0, 0.3),
		algorithms.Teleport(2.2, -0.9),
		algorithms.QFT(6),
		algorithms.Grover(4, 5),
		algorithms.WState(6),
		resetFeedForward(),
	}
	models := []NoiseModel{
		{Depolarizing: 0.02},
		{Depolarizing: 0.2},
		{BitFlip: 0.01},
		{PhaseFlip: 0.05},
		{},
	}
	const trajectories = 40
	for _, circ := range circuits {
		for _, model := range models {
			for _, seed := range []int64{1, 17, 4242} {
				for _, budget := range []int{0, 250000} {
					label := fmt.Sprintf("%s %+v seed=%d budget=%d", circ.Name, model, seed, budget)
					ref, refErr := runNoisyReference(circ, model, trajectories, seed, WithMaxNodes(budget))
					if refErr != nil {
						t.Fatalf("%s: reference failed: %v", label, refErr)
					}
					for _, w := range []int{1, 3} {
						got, err := RunNoisy(circ, model, trajectories, seed, WithMaxNodes(budget), WithWorkers(w))
						if err != nil {
							t.Fatalf("%s workers=%d: %v", label, w, err)
						}
						sameNoisyResult(t, ref, got, fmt.Sprintf("%s workers=%d", label, w))
					}
				}
				label := fmt.Sprintf("%s %+v seed=%d budget=64", circ.Name, model, seed)
				one, oneErr := RunNoisy(circ, model, trajectories, seed, WithMaxNodes(64), WithWorkers(1))
				three, threeErr := RunNoisy(circ, model, trajectories, seed, WithMaxNodes(64), WithWorkers(3))
				if (oneErr == nil) != (threeErr == nil) {
					t.Fatalf("%s: error presence differs across workers: %v vs %v", label, oneErr, threeErr)
				}
				sameNoisyResult(t, one, three, label)
			}
		}
	}
}

// denseLayers returns layers of distinct-angle RY rotations on every
// qubit followed by a CX ring: its state diagrams grow toward dense
// (2^n − 1 nodes) and consecutive states share few nodes.
func denseLayers(n, layers int) *qc.Circuit {
	c := qc.New(n, 0)
	c.Name = fmt.Sprintf("dense_%d_%d", n, layers)
	a := 0.37
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			a += 0.61
			c.Gate(qc.RY, []float64{a}, q)
		}
		for q := 0; q < n; q++ {
			c.CX(q, (q+1)%n)
		}
	}
	return c
}

// TestPrefixTrieCapWideCircuit: an 11-qubit circuit with near-dense
// states would pin up to 2047 nodes per op; the trie must stop once
// its pinned nodes pass triePinnedCap, and the ensemble must still
// match the reference.
func TestPrefixTrieCapWideCircuit(t *testing.T) {
	circ := denseLayers(11, 4)
	model := NoiseModel{Depolarizing: 0.01}
	r := newReplica(dd.New(circ.NQubits), circ, model, nil)
	pinned := r.pkg.LiveNodes()
	states, leaves := 0, 0
	r.root.walk(func(n *prefixNode) {
		states++
		if n.leaf() && n.pos < len(circ.Ops) {
			leaves++
		}
	})
	// The check runs before each step, so the last state may overshoot
	// the limit by at most one dense state.
	if limit := triePinnedCap + 1<<circ.NQubits; pinned > limit {
		t.Fatalf("trie pins %d live nodes, cap %d", pinned, limit)
	}
	if leaves != 1 || states >= len(circ.Ops) {
		t.Fatalf("trie has %d states and %d leaves over %d ops, %d pinned nodes: the cap did not bind", states, leaves, len(circ.Ops), pinned)
	}
	r.close()
	t.Logf("trie: %d states, %d pinned nodes (limit %d)", states, pinned, triePinnedCap)

	ref, refErr := runNoisyReference(circ, model, 4, 5)
	if refErr != nil {
		t.Fatal(refErr)
	}
	for _, w := range []int{1, 3} {
		got, err := RunNoisy(circ, model, 4, 5, WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		sameNoisyResult(t, ref, got, fmt.Sprintf("wide workers=%d", w))
	}
}

// TestPrefixTrieShape pins the trie of two small circuits: GHZ(14) is
// a chain of one state per op plus the end, and Teleport branches on
// its two mid-circuit measurements into four end states.
func TestPrefixTrieShape(t *testing.T) {
	count := func(circ *qc.Circuit) (states, ends int) {
		r := newReplica(dd.New(circ.NQubits), circ, NoiseModel{Depolarizing: 0.02}, nil)
		defer r.close()
		r.root.walk(func(n *prefixNode) {
			states++
			if n.pos == len(circ.Ops) {
				ends++
				if n.size != dd.SizeV(n.state) {
					t.Fatalf("%s: cached end size %d, state has %d nodes", circ.Name, n.size, dd.SizeV(n.state))
				}
			}
		})
		return states, ends
	}
	ghz := algorithms.GHZ(14)
	if states, ends := count(ghz); states != len(ghz.Ops)+1 || ends != 1 {
		t.Fatalf("GHZ(14): %d states, %d ends; want a chain of %d", states, ends, len(ghz.Ops)+1)
	}
	if _, ends := count(algorithms.Teleport(1.0, 0.3)); ends != 4 {
		t.Fatalf("Teleport: %d end states, want 4", ends)
	}
}

// TestPrefixTrieBudgetLeaf: when the root's first step already fails
// the budget, the root is a leaf and every trajectory fails on its
// own, reporting the budget error.
func TestPrefixTrieBudgetLeaf(t *testing.T) {
	circ := algorithms.GHZ(6)
	r := newReplica(dd.New(circ.NQubits), circ, NoiseModel{}, []Option{WithMaxNodes(4)})
	defer r.close()
	if !r.root.leaf() {
		t.Fatal("root extended past an exhausted budget")
	}
	r.src.seedTrajectory(1, 0)
	if out := r.run(context.Background(), 0); !errors.Is(out.err, dd.ErrResourceExhausted) {
		t.Fatalf("trajectory from a budget leaf: err = %v", out.err)
	}
}

// TestReplicaTablesStayWarm drives one replica under the server's node
// budget through a GHZ(14) ensemble the way the pool loop does. A
// replica that collected after every trajectory which allocated
// anything swept its package 162 times here (once after the trie
// build) and made 23,516 compute-table lookups, 20 of them hits;
// collecting only when the live nodes double keeps the tables warm
// across trajectories.
func TestReplicaTablesStayWarm(t *testing.T) {
	circ := algorithms.GHZ(14)
	pkg := dd.New(circ.NQubits)
	defer pkg.Close()
	r := newReplica(pkg, circ, NoiseModel{Depolarizing: 0.02}, []Option{WithMaxNodes(250000)})
	defer r.close()
	for tr := 0; tr < 400; tr++ {
		r.src.seedTrajectory(1, tr)
		if out := r.run(context.Background(), tr); out.err != nil {
			t.Fatalf("trajectory %d: %v", tr, out.err)
		}
		r.maintain()
	}
	st := pkg.Stats()
	t.Logf("%d collections, %d of %d compute-table lookups hit", st.GCRuns, st.CacheHits, st.CacheLookups)
	if ddPoison {
		return // the detector build collects after every trajectory
	}
	if st.GCRuns > 8 {
		t.Errorf("%d collections, bound 8", st.GCRuns)
	}
	if st.CacheLookups > 12000 {
		t.Errorf("%d compute-table lookups, bound 12000", st.CacheLookups)
	}
}
