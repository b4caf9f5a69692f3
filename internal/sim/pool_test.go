package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
)

// sameNoisyResult compares the worker-count-invariant fields of two
// results: everything except Workers itself must be bit-identical.
func sameNoisyResult(t *testing.T, ref, got *NoisyResult, label string) {
	t.Helper()
	if got.Trajectories != ref.Trajectories || got.Requested != ref.Requested || got.Failed != ref.Failed {
		t.Fatalf("%s: progress mismatch: got %d/%d (%d failed), want %d/%d (%d failed)",
			label, got.Trajectories, got.Requested, got.Failed, ref.Trajectories, ref.Requested, ref.Failed)
	}
	if got.ErrorEvents != ref.ErrorEvents {
		t.Fatalf("%s: error events %d, want %d", label, got.ErrorEvents, ref.ErrorEvents)
	}
	if got.MeanNodes != ref.MeanNodes {
		t.Fatalf("%s: mean nodes %v, want %v (must be bit-identical)", label, got.MeanNodes, ref.MeanNodes)
	}
	if len(got.Counts) != len(ref.Counts) {
		t.Fatalf("%s: %d distinct outcomes, want %d", label, len(got.Counts), len(ref.Counts))
	}
	for k, v := range ref.Counts {
		if got.Counts[k] != v {
			t.Fatalf("%s: counts[%d] = %d, want %d", label, k, got.Counts[k], v)
		}
	}
}

// TestWorkerSweepBitIdentical is the order-independence regression
// test: the same ensemble must produce a bit-identical result for
// every worker count, including a pool wider than the trajectory
// count.
func TestWorkerSweepBitIdentical(t *testing.T) {
	circ := algorithms.GHZ(6)
	model := NoiseModel{Depolarizing: 0.05}
	const trajectories = 300

	ref, err := RunNoisy(circ, model, trajectories, 42, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Workers != 1 || ref.Trajectories != trajectories || ref.ErrorEvents == 0 {
		t.Fatalf("malformed sequential reference: %+v", ref)
	}

	sweep := []int{2, 3, 4, 8, runtime.NumCPU(), trajectories + 50}
	for _, w := range sweep {
		got, err := RunNoisy(circ, model, trajectories, 42, WithWorkers(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got.Workers > trajectories {
			t.Fatalf("workers=%d: pool wider than the ensemble (%d)", w, got.Workers)
		}
		sameNoisyResult(t, ref, got, fmt.Sprintf("workers=%d", w))
	}
}

// TestWorkerSweepWithMidCircuitMeasurement repeats the sweep on a
// circuit whose trajectories draw measurement outcomes mid-circuit
// (classical control), the harder determinism case: every draw must
// come from the trajectory's private stream.
func TestWorkerSweepWithMidCircuitMeasurement(t *testing.T) {
	circ := algorithms.Teleport(1.0, 0.3)
	model := NoiseModel{Depolarizing: 0.02}
	ref, err := RunNoisy(circ, model, 120, 7, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		got, err := RunNoisy(circ, model, 120, 7, WithWorkers(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		sameNoisyResult(t, ref, got, "teleport sweep")
	}
}

// TestTrajectorySeedMixing checks the counter mixer produces distinct,
// index-addressed seeds: no collisions over a large range, no
// dependence on evaluation order, and adjacent indices decorrelated.
func TestTrajectorySeedMixing(t *testing.T) {
	seen := make(map[int64]int, 100000)
	for i := 0; i < 100000; i++ {
		s := TrajectorySeed(99, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: indices %d and %d both map to %d", prev, i, s)
		}
		seen[s] = i
	}
	if TrajectorySeed(99, 5) != TrajectorySeed(99, 5) {
		t.Fatal("TrajectorySeed is not a pure function")
	}
	if TrajectorySeed(99, 5) == TrajectorySeed(98, 5) {
		t.Fatal("ensemble seed ignored")
	}
	// Low bits must not be constant across adjacent indices (a classic
	// weak-mixer failure that rand.NewSource would amplify).
	var low int64
	for i := 0; i < 64; i++ {
		low |= TrajectorySeed(1, i) & 1
	}
	if low == 0 {
		t.Fatal("low bit constant over 64 adjacent indices")
	}
}

// TestBudgetExhaustionPartialResult: a node budget far too small for
// the circuit fails every trajectory, but the ensemble still returns a
// partial result (not nil) carrying the failure tally, and the error
// unwraps to dd.ErrResourceExhausted. The verdict must be identical
// for every worker count — budget checks are per-replica, and an op
// that aborts with garbage present is collected and retried, so
// garbage left by other trajectories never decides a verdict.
func TestBudgetExhaustionPartialResult(t *testing.T) {
	circ := algorithms.GHZ(14)
	const trajectories = 20
	for _, w := range []int{1, 4} {
		res, err := RunNoisy(circ, NoiseModel{Depolarizing: 0.01}, trajectories, 3,
			WithWorkers(w), WithMaxNodes(4))
		if err == nil {
			t.Fatalf("workers=%d: budget exhaustion not reported", w)
		}
		if !errors.Is(err, dd.ErrResourceExhausted) {
			t.Fatalf("workers=%d: error %v does not unwrap to ErrResourceExhausted", w, err)
		}
		if res == nil {
			t.Fatalf("workers=%d: partial result discarded", w)
		}
		if res.Failed != trajectories || res.Trajectories != 0 {
			t.Fatalf("workers=%d: %d completed / %d failed, want 0/%d", w, res.Trajectories, res.Failed, trajectories)
		}
		if !res.IsPartial() {
			t.Fatalf("workers=%d: result not marked partial: %+v", w, res)
		}
		if res.MeanNodes != 0 || len(res.Counts) != 0 {
			t.Fatalf("workers=%d: failed trajectories leaked statistics: %+v", w, res)
		}
	}
}

// TestBudgetVerdictsDeterministicAcrossWorkers uses a budget that some
// trajectories fit under and others (with more injected errors) may
// not — whatever the split, it must be the same split for every
// worker count.
func TestBudgetVerdictsDeterministicAcrossWorkers(t *testing.T) {
	circ := algorithms.GHZ(8)
	model := NoiseModel{Depolarizing: 0.1}
	ref, refErr := RunNoisy(circ, model, 80, 11, WithWorkers(1), WithMaxNodes(64))
	for _, w := range []int{2, 5} {
		got, err := RunNoisy(circ, model, 80, 11, WithWorkers(w), WithMaxNodes(64))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("workers=%d: error presence differs: %v vs %v", w, err, refErr)
		}
		sameNoisyResult(t, ref, got, "budget sweep")
	}
}

// gatedDenseLayers is denseLayers on n data qubits with every gate
// also controlled by an extra qubit n in |0⟩: the error-free states
// are all |0…0⟩, so the trie pins only that one chain, and a
// trajectory grows dense states only after an error flips the
// control qubit — the earlier the flip, the larger they get.
func gatedDenseLayers(n, layers int) *qc.Circuit {
	c := qc.New(n+1, 0)
	c.Name = fmt.Sprintf("gated_dense_%d_%d", n, layers)
	on := qc.Control{Qubit: n}
	a := 0.37
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			a += 0.61
			c.Gate(qc.RY, []float64{a}, q, on)
		}
		for q := 0; q < n; q++ {
			c.X((q+1)%n, on, qc.Control{Qubit: q})
		}
	}
	return c
}

// TestBudgetVerdictsSurviveMidEnsembleCollections: replicas collect
// only when their live nodes double, so a trajectory may start on
// another trajectory's garbage, and which garbage depends on the
// worker count. Garbage only raises the live count, and an op that
// aborts with garbage present is collected and retried on the pinned
// trie plus the trajectory's own state, so each op fits or fails as on
// a collected package. Here the watermark fires many times and some
// trajectories exhaust the budget; every worker count must give the
// result of the reference loop, which collects after every trajectory.
// Without the retry, garbage decides verdicts here: 1 and 2 workers
// fail 31 trajectories and the reference and 5 workers 30.
func TestBudgetVerdictsSurviveMidEnsembleCollections(t *testing.T) {
	circ := gatedDenseLayers(11, 4)
	model := NoiseModel{Depolarizing: 0.02}
	const trajectories, seed, budget = 80, 3, 3000

	// One replica, driven as the pool loop drives it, shows the
	// schedule the ensemble runs under.
	pkg := dd.New(circ.NQubits)
	r := newReplica(pkg, circ, model, []Option{WithMaxNodes(budget)})
	fired, failed := 0, 0
	for tr := 0; tr < trajectories; tr++ {
		r.src.seedTrajectory(seed, tr)
		if out := r.run(context.Background(), tr); out.err != nil {
			failed++
		}
		runs := pkg.Stats().GCRuns
		r.maintain()
		fired += int(pkg.Stats().GCRuns - runs)
	}
	r.close()
	pkg.Close()
	if fired < 3 || failed == 0 || failed == trajectories {
		t.Fatalf("watermark fired %d times and %d of %d trajectories failed: the case needs several collections and a split", fired, failed, trajectories)
	}
	t.Logf("watermark fired %d times; %d of %d trajectories exhausted the budget", fired, failed, trajectories)

	ref, refErr := runNoisyReference(circ, model, trajectories, seed, WithMaxNodes(budget))
	if !errors.Is(refErr, dd.ErrResourceExhausted) || ref.Failed != failed {
		t.Fatalf("reference: %d failed (%v), the replica failed %d", ref.Failed, refErr, failed)
	}
	for _, w := range []int{1, 2, 5} {
		got, err := RunNoisy(circ, model, trajectories, seed, WithWorkers(w), WithMaxNodes(budget))
		if !errors.Is(err, dd.ErrResourceExhausted) {
			t.Fatalf("workers=%d: error %v, want the budget error", w, err)
		}
		sameNoisyResult(t, ref, got, fmt.Sprintf("workers=%d", w))
	}
}

// TestPoolCancellation cancels mid-ensemble: the call must return the
// partial result with the context error, and every pool goroutine must
// have exited (mirrors the web server's Close leak check). Worker 0
// runs on the caller's goroutine, so the one-worker pool takes the same
// claim loop.
func TestPoolCancellation(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		before := runtime.NumGoroutine()

		ctx, cancel := context.WithCancel(context.Background())
		var n atomic.Int64
		observer := func(float64) {
			if n.Add(1) == 10 {
				cancel()
			}
		}
		res, err := RunNoisyCtx(ctx, algorithms.GHZ(10), NoiseModel{Depolarizing: 0.02},
			100000, 5, WithWorkers(w), WithTrajectoryObserver(observer))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error = %v, want context.Canceled", w, err)
		}
		if res == nil || res.Trajectories == 0 || !res.IsPartial() {
			t.Fatalf("workers=%d: cancellation discarded completed work: %+v", w, res)
		}
		if res.Trajectories >= res.Requested {
			t.Fatalf("workers=%d: cancellation did not trim the ensemble: %+v", w, res)
		}
		if res.Workers != w {
			t.Fatalf("workers=%d: ensemble ran on %d workers", w, res.Workers)
		}

		// All workers must be gone; poll briefly since wg.Wait() returning
		// only guarantees the worker bodies finished.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > before {
			t.Fatalf("workers=%d: goroutine leak: %d before, %d after cancellation", w, before, g)
		}
	}
}

// TestPoolPreCancelled: a context that is already done runs no
// trajectory on any pool width.
func TestPoolPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 3} {
		res, err := RunNoisyCtx(ctx, algorithms.Bell(), NoiseModel{}, 100, 1, WithWorkers(w))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error = %v, want context.Canceled", w, err)
		}
		if res == nil || res.Trajectories != 0 || res.Failed != 0 || len(res.Counts) != 0 {
			t.Fatalf("workers=%d: pre-cancelled ensemble ran trajectories: %+v", w, res)
		}
	}
}

// TestObserverCountsCompletions: the trajectory observer fires exactly
// once per completed trajectory, on every worker count.
func TestObserverCountsCompletions(t *testing.T) {
	for _, w := range []int{1, 3} {
		var n atomic.Int64
		res, err := RunNoisy(algorithms.Bell(), NoiseModel{}, 50, 1,
			WithWorkers(w), WithTrajectoryObserver(func(float64) { n.Add(1) }))
		if err != nil {
			t.Fatal(err)
		}
		if int(n.Load()) != res.Trajectories || res.Trajectories != 50 {
			t.Fatalf("workers=%d: observer fired %d times for %d completions", w, n.Load(), res.Trajectories)
		}
	}
}

// TestResolveWorkers pins the clamping rules the API documents.
func TestResolveWorkers(t *testing.T) {
	if got := resolveWorkers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	if got := resolveWorkers(8, 3); got != 3 {
		t.Fatalf("pool wider than ensemble not clamped: %d", got)
	}
	if got := resolveWorkers(-2, 5); got != runtime.GOMAXPROCS(0) && got != 5 {
		t.Fatalf("negative request resolved to %d", got)
	}
	if got := resolveWorkers(1, 10); got != 1 {
		t.Fatalf("explicit sequential overridden: %d", got)
	}
}

// TestMeanNodesExact: MeanNodes comes from an integer node total, so
// it must be an exact ratio — guard against float accumulation that
// would break the bit-identical guarantee.
func TestMeanNodesExact(t *testing.T) {
	res, err := RunNoisy(algorithms.GHZ(5), NoiseModel{Depolarizing: 0.05}, 64, 2, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	scaled := res.MeanNodes * float64(res.Trajectories)
	if scaled != math.Trunc(scaled) {
		t.Fatalf("MeanNodes %v is not an exact integer ratio over %d trajectories", res.MeanNodes, res.Trajectories)
	}
}
