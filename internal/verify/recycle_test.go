package verify

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
)

// Recycled memory is invisible: a package that draws its node chunks,
// unique buckets, compute tables and complex slots from arrays a
// closed package handed back computes exactly what a package built on
// fresh memory computes, bit for bit and counter for counter.

// closeDirtyPackages fills the pools with arrays full of stale nodes,
// compute-table entries and complex values: a 9-qubit functionality
// build and a 9-qubit simulation run to the end, both closed. No case
// below is 9 qubits wide.
func closeDirtyPackages(t *testing.T) {
	t.Helper()
	p := dd.New(9)
	if _, err := Functionality(p, algorithms.QFT(9)); err != nil {
		t.Fatal(err)
	}
	p.Close()
	s := sim.New(algorithms.RandomCircuit(9, 20, 3), sim.WithSeed(3))
	if _, err := s.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	s.Pkg().Close()
}

// recycleRun is one case: it runs on a new package, returns the
// serialized result and the package's counters, and closes the package.
type recycleRun func(t *testing.T) ([]byte, dd.Stats)

func functionalityRun(c *qc.Circuit) recycleRun {
	return func(t *testing.T) ([]byte, dd.Stats) {
		p := dd.New(c.NQubits)
		defer p.Close()
		u, err := Functionality(p, c)
		if err != nil {
			t.Fatal(err)
		}
		return p.AppendMatrixBinary(nil, u), p.Stats()
	}
}

func simulationRun(c *qc.Circuit) recycleRun {
	return func(t *testing.T) ([]byte, dd.Stats) {
		s := sim.New(c, sim.WithSeed(11))
		defer s.Pkg().Close()
		if _, err := s.RunToEnd(); err != nil {
			t.Fatal(err)
		}
		return s.Pkg().AppendVectorBinary(nil, s.State()), s.Pkg().Stats()
	}
}

// twice runs fn once on fresh memory (two collections empty the pools)
// and once right after closeDirtyPackages, with the collector held off
// so the dirty arrays stay pooled until the second run draws them.
func twice[R any](t *testing.T, fn func() R) (fresh, recycled R) {
	t.Helper()
	runtime.GC()
	runtime.GC()
	fresh = fn()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	closeDirtyPackages(t)
	recycled = fn()
	return fresh, recycled
}

func TestRecycledMemoryIsInvisible(t *testing.T) {
	inv, err := algorithms.QFT(5).Inverse()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  recycleRun
	}{
		{"functionality/grover5_lowered", functionalityRun(lowerMCZ(algorithms.Grover(5, 0b10110)))},
		{"functionality/qft5_inverse", functionalityRun(inv)},
		{"simulation/qpe10", simulationRun(algorithms.QPE(10, 0.3141))},
		{"simulation/random_8_12", simulationRun(algorithms.RandomCircuit(8, 12, 5))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type out struct {
				bits []byte
				st   dd.Stats
			}
			fresh, recycled := twice(t, func() out {
				b, st := tc.run(t)
				st.GCPauseNS = 0 // wall clock
				return out{b, st}
			})
			if !bytes.Equal(fresh.bits, recycled.bits) {
				t.Errorf("result differs on recycled memory: %d bytes vs %d", len(fresh.bits), len(recycled.bits))
			}
			if fresh.st != recycled.st {
				t.Errorf("counters differ on recycled memory:\nfresh    %+v\nrecycled %+v", fresh.st, recycled.st)
			}
			t.Logf("%d bytes, %d nodes created, %d unique-table collisions, %d compute-table stores, %d complex values",
				len(fresh.bits), fresh.st.NodesCreatedV+fresh.st.NodesCreatedM, fresh.st.UTCollisions, fresh.st.CTStores, fresh.st.ComplexValues)
		})
	}
	t.Run("noisy/teleport", func(t *testing.T) {
		circ := algorithms.Teleport(1.0, 0.3)
		model := sim.NoiseModel{Depolarizing: 0.02, BitFlip: 0.01}
		fresh, recycled := twice(t, func() *sim.NoisyResult {
			res, err := sim.RunNoisy(circ, model, 400, 7, sim.WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
		if !reflect.DeepEqual(fresh, recycled) {
			t.Errorf("ensemble differs on recycled memory:\nfresh    %+v\nrecycled %+v", fresh, recycled)
		}
	})
}

// TestFunctionalityRecycledAllocBytes guards what recycling saves: a
// lowered Grover(5) build right after a closed one draws its chunks,
// buckets, compute tables and complex slots from the pools. A build on
// fresh memory allocates about 1.10 MB (TestFunctionalityAllocBytes).
// The collector is held off, so it cannot empty the pools between the
// two builds, and both builds run on one P: a sync.Pool keeps the
// first array put on a P in a slot only that P reads, so a goroutine
// that migrated between the builds would miss those arrays.
func TestFunctionalityRecycledAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap byte counts are not meaningful under the race detector")
	}
	circ := lowerMCZ(algorithms.Grover(5, 0b10110))
	const maxBytes = 300 << 10 // 300 kB
	build := func() {
		p := dd.New(circ.NQubits)
		p.SetMaxNodes(250000)
		if _, err := Functionality(p, circ); err != nil {
			t.Fatal(err)
		}
		p.Close()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d heap bytes, %d allocations", bytes, after.Mallocs-before.Mallocs)
	if bytes > maxBytes && !ddPoison {
		t.Fatalf("%d heap bytes after a closed build, bound %d", bytes, maxBytes)
	}
}
