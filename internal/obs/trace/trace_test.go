package trace_test

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quantumdd/internal/dd"
	"quantumdd/internal/obs/trace"
)

// TestDisabledTracerAllocs pins the disabled-path contract: starting,
// attributing, and ending a span on a context without a recorder must
// not allocate. The CI workflow runs this guard explicitly.
func TestDisabledTracerAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, sp := trace.StartSpan(ctx, "noop")
		sp.SetAttr("nodes", 42)
		sp.End()
		_ = ctx2
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan/SetAttr/End allocated %.1f times per run, want 0", allocs)
	}
	if trace.Enabled(ctx) {
		t.Fatal("Enabled() = true on a bare context")
	}
}

func TestEnabled(t *testing.T) {
	ctx := trace.With(context.Background(), trace.NewRecorder("s", 8))
	if !trace.Enabled(ctx) {
		t.Fatal("Enabled() = false with a recorder attached")
	}
	child, sp := trace.StartSpan(ctx, "root")
	if !trace.Enabled(child) {
		t.Fatal("Enabled() = false inside a span")
	}
	sp.End()
	if trace.With(context.Background(), nil) != context.Background() {
		t.Fatal("With(nil) must return the context unchanged")
	}
}

// TestFoldSumsOps checks a folding span: the DD operations completing
// while it is current add to its dd_ops and dd_us attributes instead of
// entering the ring, those under a child span it parents stay child
// spans, and its own attributes come first.
func TestFoldSumsOps(t *testing.T) {
	rec := trace.NewRecorder("s", 16)
	ctx := trace.With(context.Background(), rec)
	ctx, ff := trace.StartSpan(ctx, "fast-forward:end")
	ff.Fold()
	ff.SetAttr("ops", 3)
	rec.ObserveOp(dd.OpApplyGate, 1500*time.Nanosecond)
	rec.ObserveOp(dd.OpGC, 2*time.Microsecond)
	_, child := trace.StartSpan(ctx, "step:gate")
	rec.ObserveOp(dd.OpApplyGate, time.Microsecond)
	child.End()
	rec.ObserveOp(dd.OpApplyGate, 500*time.Nanosecond)
	ff.End()
	var nilSpan *trace.Span
	nilSpan.Fold()

	spans, dropped := rec.Snapshot()
	if dropped != 0 || len(spans) != 3 {
		t.Fatalf("%d spans, %d dropped; want the DD child, the child span and the fold", len(spans), dropped)
	}
	if spans[0].Name != "dd:applygate" || spans[0].Parent != spans[1].ID || spans[1].Parent != spans[2].ID {
		t.Fatalf("the child span's operation did not stay its child: %+v", spans)
	}
	want := []trace.Attr{{Key: "ops", Value: 3}, {Key: "dd_ops", Value: 3}, {Key: "dd_us", Value: 4}}
	got := spans[2].Attrs()
	if len(got) != len(want) {
		t.Fatalf("fold attributes %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fold attributes %v, want %v", got, want)
		}
	}
}

// TestRecorderOverflowProperties is the flight-recorder property test:
// after pushing a randomized nested workload far past capacity,
//
//  1. the ring holds exactly its capacity,
//  2. emitted == retained + dropped (exact eviction accounting),
//  3. the OnDrop hook fired exactly dropped times,
//  4. every retained span still carries its original parent link,
//  5. DD child spans always parent onto a workload span.
func TestRecorderOverflowProperties(t *testing.T) {
	const capacity, spans = 64, 1000
	var hookDrops atomic.Uint64
	rec, emitted, parentOf := runSession(7, capacity, spans, &hookDrops)

	got, dropped := rec.Snapshot()
	if len(got) != capacity {
		t.Fatalf("retained %d spans, want capacity %d", len(got), capacity)
	}
	if uint64(emitted) != uint64(len(got))+dropped {
		t.Fatalf("accounting broken: emitted %d != retained %d + dropped %d", emitted, len(got), dropped)
	}
	if hookDrops.Load() != dropped {
		t.Fatalf("OnDrop fired %d times, Dropped() = %d", hookDrops.Load(), dropped)
	}
	for i, s := range got {
		if s.ID == 0 {
			t.Fatalf("retained span %d has zero id", i)
		}
		if want, ok := parentOf[s.ID]; ok {
			if s.Parent != want {
				t.Fatalf("span %d lost its parent link: got %d, want %d", s.ID, s.Parent, want)
			}
		} else if s.Parent == 0 {
			// DD spans (ids assigned internally) must parent onto a
			// span the workload opened.
			t.Fatalf("DD child span %d recorded without a parent", s.ID)
		}
	}
}

// runSession runs a randomized span workload on its own recorder —
// nested StartSpan/End trees plus DD-tracer child spans, far past the
// ring capacity — with the eviction hook installed before traffic, as
// the web server does. It returns the recorder, the number of spans
// emitted, and the expected parent of every workload span id.
func runSession(seed int64, capacity, spans int, drops *atomic.Uint64) (*trace.Recorder, int, map[uint64]uint64) {
	rec := trace.NewRecorder("sess", capacity)
	rec.OnDrop(func() { drops.Add(1) })
	emitted, parentOf := runSessionOn(rec, seed, spans)
	return rec, emitted, parentOf
}

// runSessionOn drives the workload on an existing recorder, so tests
// can hand the recorder to observer goroutines beforehand.
func runSessionOn(rec *trace.Recorder, seed int64, spans int) (int, map[uint64]uint64) {
	rng := rand.New(rand.NewSource(seed))
	parentOf := make(map[uint64]uint64)
	emitted := 0

	type open struct {
		ctx context.Context
		sp  *trace.Span
	}
	root := trace.With(context.Background(), rec)
	var stack []open
	for emitted < spans {
		switch {
		case len(stack) == 0 || (rng.Intn(3) == 0 && len(stack) < 5):
			ctx := root
			var parent uint64
			if len(stack) > 0 {
				ctx = stack[len(stack)-1].ctx
				parent = stack[len(stack)-1].sp.ID
			}
			ctx, sp := trace.StartSpan(ctx, "op")
			sp.SetAttr("depth", int64(len(stack)))
			parentOf[sp.ID] = parent
			stack = append(stack, open{ctx, sp})
		case rng.Intn(2) == 0:
			rec.ObserveOp(dd.OpMultMV, time.Microsecond)
			emitted++
		default:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			top.sp.End()
			emitted++
		}
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		top.sp.End()
		emitted++
	}
	return emitted, parentOf
}

// TestConcurrentSessions exercises the intended concurrency model
// under -race: each recorder is owned by one session goroutine
// (StartSpan/End/DD hook), while observer goroutines concurrently pull
// Snapshot/Dropped/Len from every recorder — the trace-export and
// debug-bundle access pattern.
func TestConcurrentSessions(t *testing.T) {
	const sessions = 4
	recs := make([]*trace.Recorder, sessions)
	var emitted [sessions]int
	var parents [sessions]map[uint64]uint64

	var wg sync.WaitGroup
	stopObs := make(chan struct{})
	var drops [sessions]atomic.Uint64
	for i := 0; i < sessions; i++ {
		i := i
		recs[i] = trace.NewRecorder("sess", 32)
		recs[i].OnDrop(func() { drops[i].Add(1) })
	}
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			emitted[i], parents[i] = runSessionOn(recs[i], int64(i+1), 500)
		}(i)
	}
	// Observers race against the sessions above.
	var owg sync.WaitGroup
	for o := 0; o < 2; o++ {
		owg.Add(1)
		go func() {
			defer owg.Done()
			for {
				select {
				case <-stopObs:
					return
				default:
				}
				for i := 0; i < sessions; i++ {
					r := recs[i]
					if r == nil {
						continue
					}
					spans, dropped := r.Snapshot()
					if uint64(len(spans)) > 32 {
						t.Error("snapshot larger than capacity")
						return
					}
					_ = dropped
					_ = r.Len()
				}
			}
		}()
	}
	wg.Wait()
	close(stopObs)
	owg.Wait()

	for i := 0; i < sessions; i++ {
		got, dropped := recs[i].Snapshot()
		if uint64(emitted[i]) != uint64(len(got))+dropped {
			t.Fatalf("session %d: emitted %d != retained %d + dropped %d", i, emitted[i], len(got), dropped)
		}
		if drops[i].Load() != dropped {
			t.Fatalf("session %d: OnDrop count %d != dropped %d", i, drops[i].Load(), dropped)
		}
		for _, s := range got {
			if want, ok := parents[i][s.ID]; ok && s.Parent != want {
				t.Fatalf("session %d: span %d parent %d, want %d", i, s.ID, s.Parent, want)
			}
		}
	}
}

// TestRingBytesPerSpan guards the flight recorder's heap cost per
// retained span: filling a DefaultCapacity recorder with the mix a
// traced gate step emits (a step span with five attributes, its apply
// span and one DD-op span), growth copies included, may allocate at
// most the measured bytes per span plus about 20 %.
func TestRingBytesPerSpan(t *testing.T) {
	const maxBytes = 264
	rec := trace.NewRecorder("s", trace.DefaultCapacity)
	attrs := []trace.Attr{{Key: "op_index", Value: 1}, {Key: "nodes_before", Value: 2},
		{Key: "nodes_after", Value: 3}, {Key: "ct_hits", Value: 4}, {Key: "apply_ct_hits", Value: 5}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := uint64(1); rec.Len() < trace.DefaultCapacity; id += 3 {
		rec.Emit(trace.MakeSpan(id, 0, "step:gate", 0, 10, attrs...))
		rec.Emit(trace.MakeSpan(id+1, id, "apply h q[0]", 1, 5))
		rec.Emit(trace.MakeSpan(id+2, id+1, "dd:applygate", 2, 3))
	}
	runtime.ReadMemStats(&after)
	perSpan := float64(after.TotalAlloc-before.TotalAlloc) / float64(rec.Len())
	t.Logf("%.0f heap bytes per retained span", perSpan)
	if perSpan > maxBytes {
		t.Fatalf("%.0f heap bytes per retained span, bound %d", perSpan, maxBytes)
	}
}
