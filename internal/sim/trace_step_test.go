package sim

import (
	"context"
	"runtime"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/obs/trace"
	"quantumdd/internal/qc"
)

// TestStepSpanSizesMatchWalk checks the cached state size against a
// fresh walk of the diagram: every step span's nodes_before and
// nodes_after, and PeakNodes, must equal what dd.SizeV reports, across
// gates, measurements, resets, steps backward and a rewind.
func TestStepSpanSizesMatchWalk(t *testing.T) {
	c := qc.New(5, 2)
	c.H(0)
	for q := 0; q < 4; q++ {
		c.CX(q, q+1)
	}
	c.Measure(2, 0)
	c.Reset(3)
	c.Gate(qc.RY, []float64{0.7}, 3)
	c.CX(3, 4)
	c.Measure(4, 1)
	rec := trace.NewRecorder("s", 4096)
	ctx := trace.With(context.Background(), rec)
	s := New(c, WithSeed(3))
	peak := dd.SizeV(s.State())
	type sizes struct{ before, after int64 }
	var want []sizes
	step := func() {
		before := dd.SizeV(s.State())
		if _, err := s.StepForwardCtx(ctx); err != nil {
			t.Fatal(err)
		}
		after := dd.SizeV(s.State())
		want = append(want, sizes{int64(before), int64(after)})
		peak = max(peak, after)
	}
	for !s.AtEnd() {
		step()
	}
	for i := 0; i < 4; i++ {
		s.StepBackward()
	}
	step()
	s.Rewind()
	if got := s.PeakNodes(); got != peak {
		t.Fatalf("PeakNodes() = %d after rewind, walks saw %d", got, peak)
	}
	for !s.AtEnd() {
		step()
	}
	if got := s.PeakNodes(); got != peak {
		t.Fatalf("PeakNodes() = %d, walks saw %d", got, peak)
	}

	spans, _ := rec.Snapshot()
	var got []sizes
	for _, sp := range spans {
		if sp.Parent != 0 {
			continue
		}
		var sz sizes
		for _, a := range sp.Attrs() {
			switch a.Key {
			case "nodes_before":
				sz.before = a.Value
			case "nodes_after":
				sz.after = a.Value
			}
		}
		got = append(got, sz)
	}
	if len(got) != len(want) {
		t.Fatalf("%d step spans, %d steps", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: span nodes before/after %v, walks %v", i, got[i], want[i])
		}
	}
}

// TestTracedStepAllocBytes guards the heap bytes of one traced gate
// step: StepForwardCtx under a full recorder, whose ring and attribute
// buffer only overwrite, replaying a random 8-qubit circuit after two
// rewinds, when the engine's tables have stopped growing and what
// remains is the step, its events and its spans. The bound is the
// measured value plus about 20 %.
func TestTracedStepAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap byte counts are not meaningful under the race detector")
	}
	const maxBytes = 460
	c := algorithms.RandomCircuit(8, 12, 7)
	rec := trace.NewRecorder("s", trace.DefaultCapacity)
	for i := 0; i < trace.DefaultCapacity; i++ {
		rec.Emit(trace.MakeSpan(uint64(i+1), 0, "fill", 0, 0, make([]trace.Attr, trace.MaxAttrs)...))
	}
	ctx := trace.With(context.Background(), rec)
	s := New(c, WithSeed(1))
	runToEnd := func() {
		for !s.AtEnd() {
			if _, err := s.StepForwardCtx(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		runToEnd()
		s.Rewind()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runToEnd()
	runtime.ReadMemStats(&after)
	perStep := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(c.Ops))
	t.Logf("%.0f heap bytes, %d allocations per traced step", perStep, (after.Mallocs-before.Mallocs)/uint64(len(c.Ops)))
	if perStep > maxBytes && !ddPoison {
		t.Fatalf("%.0f heap bytes per traced step, bound %d", perStep, maxBytes)
	}
}

// TestStepSpanHitAttrs pins the ct_hits and apply_ct_hits attributes
// of every traced step to the CacheHits and ApplyCTHits deltas of two
// full Stats snapshots around the step, across gates, a conditional
// gate, measurements and a reset.
func TestStepSpanHitAttrs(t *testing.T) {
	c := qc.New(6, 2)
	c.Ops = append(c.Ops, algorithms.RandomCircuit(6, 8, 5).Ops...)
	c.Measure(2, 0)
	c.Reset(3)
	c.Ops = append(c.Ops, qc.Op{Kind: qc.KindGate, Gate: qc.X, Targets: []int{4},
		Cond: &qc.Condition{Bits: []int{0, 1}, Value: 1}})
	c.Measure(4, 1)
	c.Ops = append(c.Ops, algorithms.RandomCircuit(6, 4, 9).Ops...)
	rec := trace.NewRecorder("s", 1<<14)
	ctx := trace.With(context.Background(), rec)
	s := New(c, WithSeed(2))
	type hits struct{ ct, apply int64 }
	var want []hits
	for pass := 0; pass < 2; pass++ {
		for !s.AtEnd() {
			before := s.Pkg().Stats()
			if _, err := s.StepForwardCtx(ctx); err != nil {
				t.Fatal(err)
			}
			after := s.Pkg().Stats()
			want = append(want, hits{int64(after.CacheHits - before.CacheHits), int64(after.ApplyCTHits - before.ApplyCTHits)})
		}
		s.Rewind()
	}
	spans, _ := rec.Snapshot()
	var got []hits
	for _, sp := range spans {
		if sp.Parent != 0 {
			continue
		}
		var h hits
		for _, a := range sp.Attrs() {
			switch a.Key {
			case "ct_hits":
				h.ct = a.Value
			case "apply_ct_hits":
				h.apply = a.Value
			}
		}
		got = append(got, h)
	}
	if len(got) != len(want) {
		t.Fatalf("%d step spans, %d steps", len(got), len(want))
	}
	var total int64
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: span hits %+v, Stats deltas %+v", i, got[i], want[i])
		}
		total += want[i].ct
	}
	if total == 0 {
		t.Fatal("no step hit a compute table; the attributes are untested")
	}
}
