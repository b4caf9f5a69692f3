package dd

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var hGate = GateMatrix{
	complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0),
	complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0),
}

// observerFunc adapts a function to the Observer interface.
type observerFunc func(op Op, d time.Duration)

func (f observerFunc) ObserveOp(op Op, d time.Duration) { f(op, d) }

func TestObserverSeesTopLevelOps(t *testing.T) {
	p := New(3)
	var counts [NumOps]int
	p.SetObserver(observerFunc(func(op Op, d time.Duration) {
		if d < 0 {
			t.Errorf("negative duration for %v", op)
		}
		counts[op]++
	}))
	h := p.MakeGateDD(hGate, 0)
	state := p.MultMV(h, p.ZeroState())
	_ = p.AddV(state, state)
	u := p.MultMM(h, h)
	_ = p.ConjTranspose(u)
	p.GarbageCollect()

	if counts[OpMultMV] != 1 {
		t.Errorf("MultMV traced %d times, want exactly 1 (recursion must not be traced)", counts[OpMultMV])
	}
	if counts[OpAddV] != 1 {
		t.Errorf("AddV traced %d times, want 1", counts[OpAddV])
	}
	if counts[OpMultMM] != 1 {
		t.Errorf("MultMM traced %d times, want 1", counts[OpMultMM])
	}
	if counts[OpConjTranspose] != 1 {
		t.Errorf("ConjTranspose traced %d times, want 1", counts[OpConjTranspose])
	}
	if counts[OpGC] != 1 {
		t.Errorf("GC traced %d times, want 1", counts[OpGC])
	}
}

func TestDefaultObserverInheritedByNewPackages(t *testing.T) {
	var ops atomic.Int64
	SetDefaultObserver(observerFunc(func(op Op, d time.Duration) { ops.Add(1) }))
	defer SetDefaultObserver(nil)
	p := New(2)
	h := p.MakeGateDD(hGate, 0)
	p.MultMV(h, p.ZeroState())
	if ops.Load() == 0 {
		t.Fatal("package created after SetDefaultObserver was not observed")
	}
}

// TestObservedApplyAllocs pins the per-operation cost of the hook: a
// warm gate application allocates nothing with no observer and, with
// a no-op observer, nothing beyond the stats snapshot published once
// per publishStride operations (which AllocsPerRun's integer average
// amortises to 0). The CI workflow runs this guard explicitly.
func TestObservedApplyAllocs(t *testing.T) {
	for _, o := range []Observer{nil, observerFunc(func(Op, time.Duration) {})} {
		p := New(3)
		p.SetObserver(o)
		v := p.ApplyGate(p.ZeroState(), hGate, 0)
		m := p.ApplyGateML(p.Ident(), hGate, 1)
		p.IncRefV(v)
		p.IncRefM(m)
		if n := testing.AllocsPerRun(1000, func() {
			p.ApplyGate(v, hGate, 1)
			p.ApplyGateML(m, hGate, 2)
			p.ApplyGateMR(m, hGate, 2)
		}); n != 0 {
			t.Fatalf("observer %v: warm ApplyGate+ApplyGateML+ApplyGateMR allocated %.1f times per call, want 0", o != nil, n)
		}
	}
}

func TestOpStringsAreStable(t *testing.T) {
	want := map[Op]string{
		OpAddV: "addv", OpAddM: "addm", OpMultMV: "multmv", OpMultMM: "multmm",
		OpKron: "kron", OpConjTranspose: "conjt", OpGC: "gc",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), s)
		}
	}
}

func TestGCPauseAccumulates(t *testing.T) {
	p := New(2)
	h := p.MakeGateDD(hGate, 0)
	p.MultMV(h, p.ZeroState())
	p.GarbageCollect()
	if st := p.Stats(); st.GCRuns != 1 || st.GCPauseNS == 0 {
		t.Fatalf("after GC: runs=%d pause=%dns, want 1 run with non-zero pause", st.GCRuns, st.GCPauseNS)
	}
}

// TestLastStatsRaceCleanDuringGC is the -race regression test for the
// stats-snapshot path: concurrent LastStats readers must never race
// with the mutating goroutine, even while garbage collections rewrite
// the unique tables. (A direct Stats() call from another goroutine
// WOULD race — LastStats reads only the atomically published
// snapshot, which is what the web scrape path uses.)
func TestLastStatsRaceCleanDuringGC(t *testing.T) {
	p := New(4)
	p.SetObserver(observerFunc(func(Op, time.Duration) {}))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if st, ok := p.LastStats(); ok && st.LiveNodes < 0 {
					t.Error("impossible snapshot")
					return
				}
			}
		}()
	}

	h := p.MakeGateDD(hGate, 0)
	p.IncRefM(h) // protect the reused gate diagram across GCs
	state := p.ZeroState()
	for q := 0; q < 4; q++ {
		state = p.MultMV(p.MakeGateDD(hGate, q), state)
	}
	p.IncRefV(state)
	for i := 0; i < 2000; i++ {
		// A fresh rotation angle per step defeats the compute tables and
		// keeps minting nodes, so the live count crosses the GC trigger.
		theta := float64(i) * 1e-3
		rz := GateMatrix{1, 0, 0, complex(math.Cos(theta), math.Sin(theta))}
		next := p.MultMV(p.MakeGateDD(rz, i%4), state)
		next = p.MultMV(h, next)
		p.IncRefV(next)
		p.DecRefV(state)
		state = next
		if p.LiveNodes() >= 64 {
			p.GarbageCollect() // force frequent sweeps while readers poll
		}
	}
	close(stop)
	wg.Wait()

	st, ok := p.LastStats()
	if !ok {
		t.Fatal("no snapshot published despite an observer being installed")
	}
	if st.GCRuns == 0 {
		t.Fatal("test exercised no GC; lower the collection threshold")
	}
}
