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
// for every worker count — budget checks are per-replica, and the
// per-trajectory GC resets each replica to the same baseline.
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
