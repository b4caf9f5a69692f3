package sim

// Parallel trajectory engine: a sharded pool of independent DD engine
// replicas fanning a Monte-Carlo noise ensemble out over the cores.
//
// Both DD-simulation surveys (arXiv 2108.07027 §V, arXiv 2302.04687)
// call the one-simulation-per-shot workload embarrassingly parallel:
// every trajectory is an independent pure-state vector DD, so the
// engine needs no shared state at all. The pool exploits exactly that
// — each worker owns a full dd.Pkg replica (its own unique tables,
// compute tables, complex-number table, and slab arenas), so the hot
// paths of the storage layer (PR 2) and the gate kernel (PR 4) run
// with zero added locking. Replicas are reused across the
// trajectories a worker claims, which keeps interned complex values,
// gate descriptors, and table allocations warm.
//
// A trajectory should cost only the DD work no other trajectory does:
//
//   - Each worker simulates the circuit's error-free states once per
//     ensemble, into a trie (prefix.go). A trajectory walks it while
//     drawing its random numbers and simulates only from its first
//     sampled error; an error-free trajectory is one dd.Sample on the
//     cached final state.
//   - Workers claim trajectory indices from one atomic counter. There
//     is no feeder goroutine and no channel hand-off, which at
//     ~20µs per trajectory would wake a sleeping worker every time.
//     Worker 0 runs on the caller's goroutine, so a one-worker pool is
//     the same loop with no goroutines at all.
//   - Each worker owns one random stream, a math/rand/v2 PCG behind a
//     math/rand.Source64 adapter, and reseeds it for every trajectory
//     it claims. Seeding a PCG writes two words; seeding a math/rand
//     v1 source fills a 607-word (4.9 kB) state with 1841 generator
//     steps and keeps only 31 bits of the seed.
//   - Replica simulators skip the per-gate peak-size walk and the
//     step history, which only the interactive tool reads.
//   - A replica collects only once its live nodes have doubled since
//     its last collection (dd.GCWatermark), not after every
//     trajectory, so its compute tables stay warm across trajectories.
//
// Determinism is order-independent by construction:
//
//   - Every trajectory's stream is seeded from (ensembleSeed,
//     trajectoryIndex) through a splitmix64-style mixer
//     (TrajectorySeed) instead of sequential draws from one shared
//     RNG, so the stream does not depend on which worker runs the
//     trajectory or in what order.
//   - Merged quantities are commutative: histogram counts, error
//     events, and the node total (an integer sum, so MeanNodes is
//     exact) add up identically in any completion order.
//   - Failed trajectories do not abort the ensemble: each failure is
//     a per-index fact (same circuit, same budget, same stream, same
//     pinned trie to start from; garbage left by the worker's earlier
//     trajectories never decides a verdict, see replica.maintain), the
//     first error by trajectory index is reported, and completed
//     trajectories keep their counts — the partial-progress contract
//     of the budget frames.
//
// The result: RunNoisy returns a bit-identical *NoisyResult for every
// worker count, including 1.

import (
	"context"
	"fmt"
	randv2 "math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
)

// TrajectorySeed derives the RNG seed of one trajectory from the
// ensemble seed and the trajectory index with a splitmix64-style
// finalizer. Counter-based mixing — rather than sequential Int63
// draws from a master RNG — is what makes the ensemble's per-index
// streams independent of execution order and worker count.
func TrajectorySeed(seed int64, index int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// pcgSource is a trajectory's random stream: a math/rand/v2 PCG behind
// the math/rand.Source64 interface, so dd.Sample, samplePauli and
// measure keep taking a *rand.Rand. Reseeding is O(1), which lets a
// pool worker reuse one source across every trajectory it runs.
type pcgSource struct{ pcg randv2.PCG }

func (s *pcgSource) Uint64() uint64 { return s.pcg.Uint64() }

func (s *pcgSource) Int63() int64 { return int64(s.pcg.Uint64() >> 1) }

// Seed reseeds the stream as trajectory 0 of ensemble seed.
func (s *pcgSource) Seed(seed int64) { s.seedTrajectory(seed, 0) }

// seedTrajectory positions the stream at the start of trajectory tr of
// the ensemble: the PCG's two seed words are the mixer outputs of the
// counters 2tr and 2tr+1, so no two trajectories share a seed pair.
func (s *pcgSource) seedTrajectory(seed int64, tr int) {
	s.pcg.Seed(uint64(TrajectorySeed(seed, 2*tr)), uint64(TrajectorySeed(seed, 2*tr+1)))
}

// triePinnedCap caps the live nodes a replica's error-free trie pins
// (prefix.go); under a node budget the cap is also at most half the
// budget.
const triePinnedCap = 1 << 16

// trajectoryOutcome is the per-trajectory contribution merged into the
// ensemble result.
type trajectoryOutcome struct {
	index  int
	sample int64 // sampled basis state (valid when err == nil)
	nodes  int   // final diagram size
	events int   // Pauli errors injected
	err    error
}

// ensembleAccum merges trajectory outcomes; every merged quantity is
// commutative so the aggregate is independent of completion order.
type ensembleAccum struct {
	counts      map[int64]int
	errorEvents int
	totalNodes  int
	completed   int
	failed      int
	firstErr    error
	firstErrIdx int
}

func (a *ensembleAccum) add(o trajectoryOutcome) {
	if o.err != nil {
		a.failed++
		if a.firstErr == nil || o.index < a.firstErrIdx {
			a.firstErr = o.err
			a.firstErrIdx = o.index
		}
		return
	}
	a.counts[o.sample]++
	a.errorEvents += o.events
	a.totalNodes += o.nodes
	a.completed++
}

// merge folds another accumulator (one worker's share) into a.
func (a *ensembleAccum) merge(b *ensembleAccum) {
	for k, v := range b.counts {
		a.counts[k] += v
	}
	a.errorEvents += b.errorEvents
	a.totalNodes += b.totalNodes
	a.completed += b.completed
	a.failed += b.failed
	if b.firstErr != nil && (a.firstErr == nil || b.firstErrIdx < a.firstErrIdx) {
		a.firstErr = b.firstErr
		a.firstErrIdx = b.firstErrIdx
	}
}

// result converts the merged accumulator into the ensemble result.
func (a *ensembleAccum) result(requested, workers int) *NoisyResult {
	res := &NoisyResult{
		Trajectories: a.completed,
		Requested:    requested,
		Failed:       a.failed,
		Workers:      workers,
		Counts:       a.counts,
		ErrorEvents:  a.errorEvents,
	}
	if a.completed > 0 {
		res.MeanNodes = float64(a.totalNodes) / float64(a.completed)
	}
	return res
}

// resolveWorkers clamps the requested pool width to something useful:
// the default tracks the machine, and a pool never outnumbers its
// trajectories.
func resolveWorkers(requested, trajectories int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > trajectories {
		w = trajectories
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PoolWidth reports the worker-pool width RunNoisy would use for the
// given request, exposing the clamp logic to health probes: a probe
// asserting "the trajectory pool can still fan out" checks that a
// nominal request resolves to at least one worker.
func PoolWidth(requested, trajectories int) int {
	if trajectories < 1 {
		trajectories = 1
	}
	return resolveWorkers(requested, trajectories)
}

// RunNoisyCtx is RunNoisy under a context: cancellation (a
// disconnected client, a request deadline) stops the remaining
// trajectories and returns the partial result for the completed ones
// together with the context's error. All pool goroutines have exited
// by the time it returns.
func RunNoisyCtx(ctx context.Context, circ *qc.Circuit, model NoiseModel, trajectories int, seed int64, opts ...Option) (*NoisyResult, error) {
	if err := model.validate(); err != nil {
		return nil, err
	}
	if trajectories <= 0 {
		return nil, fmt.Errorf("sim: need at least one trajectory")
	}
	// A probe simulator resolves the ensemble options (workers,
	// observer, budget); its engine is handed to worker 0 so the
	// allocation is not wasted.
	probe := newOn(dd.New(circ.NQubits), circ, nil, opts...)
	workers := resolveWorkers(probe.workers, trajectories)
	observer := probe.trajObserver
	probe.release()

	// Workers claim indices from next until the ensemble is exhausted
	// or ctx is done. Each keeps a private accumulator, merged below.
	var next atomic.Int64
	partials := make([]ensembleAccum, workers)
	work := func(pkg *dd.Pkg, part *ensembleAccum) {
		part.counts = make(map[int64]int)
		// The replica's package dies with the ensemble: its memory
		// goes back to the pools for the next one.
		defer pkg.Close()
		r := newReplica(pkg, circ, model, opts)
		defer r.close()
		for ctx.Err() == nil {
			tr := int(next.Add(1) - 1)
			if tr >= trajectories {
				return
			}
			r.src.seedTrajectory(seed, tr)
			var start time.Time
			if observer != nil {
				start = time.Now()
			}
			out := r.run(ctx, tr)
			if out.err == nil && observer != nil {
				observer(time.Since(start).Seconds())
			}
			part.add(out)
			r.maintain()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(part *ensembleAccum) {
			defer wg.Done()
			work(dd.New(circ.NQubits), part)
		}(&partials[w])
	}
	work(probe.pkg, &partials[0])
	wg.Wait()
	acc := &partials[0]
	for w := 1; w < workers; w++ {
		acc.merge(&partials[w])
	}

	res := acc.result(trajectories, workers)
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("sim: ensemble interrupted after %d/%d trajectories: %w", acc.completed, trajectories, err)
	}
	if acc.firstErr != nil {
		return res, fmt.Errorf("sim: trajectory %d: %w", acc.firstErrIdx, acc.firstErr)
	}
	return res, nil
}

// IsPartial reports whether the result covers fewer trajectories than
// requested (budget exhaustion or cancellation trimmed the ensemble).
func (r *NoisyResult) IsPartial() bool { return r.Trajectories < r.Requested }
