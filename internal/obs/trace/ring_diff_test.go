package trace

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"quantumdd/internal/dd"
)

// refRecorder is the flight recorder the compact ring replaced, kept
// (bar identifiers) as the oracle of the differential test: a ring of
// full Span values, each active span its own heap allocation.
type refRecorder struct {
	epoch   time.Time
	cap     int
	ring    []Span
	head    int
	dropped uint64
	nextID  uint64
	current *refSpan
}

// refSpan is an active span of the reference recorder.
type refSpan struct {
	Span
	prev *refSpan
}

func (r *refRecorder) start(name string) *refSpan {
	r.nextID++
	s := &refSpan{Span: Span{ID: r.nextID, Name: name, Start: sinceEpoch(r.epoch)}, prev: r.current}
	if r.current != nil {
		s.Parent = r.current.ID
	}
	r.current = s
	return s
}

func (r *refRecorder) end(s *refSpan) {
	s.Dur = sinceEpoch(r.epoch) - s.Start
	r.current = s.prev
	r.Emit(s.Span)
}

func (r *refRecorder) Emit(s Span) {
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, s)
		return
	}
	r.ring[r.head] = s
	r.head++
	if r.head == r.cap {
		r.head = 0
	}
	r.dropped++
}

func (r *refRecorder) ddOp(op dd.Op, d time.Duration) {
	if r.current == nil || op >= dd.NumOps {
		return
	}
	end := sinceEpoch(r.epoch)
	r.nextID++
	r.Emit(Span{ID: r.nextID, Parent: r.current.ID, Name: ddOpNames[op], Start: end - int64(d), Dur: int64(d)})
}

func (r *refRecorder) Snapshot() ([]Span, uint64) {
	out := make([]Span, 0, len(r.ring))
	out = append(out, r.ring[r.head:]...)
	out = append(out, r.ring[:r.head]...)
	return out, r.dropped
}

// TestRingMatchesReference drives the compact recorder and the
// full-Span reference through the same random sequences of nested
// StartSpan, SetAttr (past MaxAttrs), End, Emit and DD-tracer calls,
// far past capacity and under a shared deterministic clock, and
// requires identical Snapshot, Dropped and Len throughout.
func TestRingMatchesReference(t *testing.T) {
	var clock int64
	defer func(f func(time.Time) int64) { sinceEpoch = f }(sinceEpoch)
	sinceEpoch = func(time.Time) int64 { return clock }

	keys := []string{"nodes", "ct_hits", "op_index", "ops"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(40)
		got := NewRecorder("s", capacity)
		var hookDrops uint64
		got.OnDrop(func() { hookDrops++ })
		want := &refRecorder{cap: capacity}
		root := With(context.Background(), got)

		type open struct {
			ctx context.Context
			sp  *Span
			ref *refSpan
		}
		var stack []open
		for step := 0; step < 3000; step++ {
			clock += int64(rng.Intn(1000))
			switch k := rng.Intn(10); {
			case k < 3 && len(stack) < 6:
				ctx := root
				if len(stack) > 0 {
					ctx = stack[len(stack)-1].ctx
				}
				name := keys[rng.Intn(len(keys))]
				ctx, sp := StartSpan(ctx, name)
				stack = append(stack, open{ctx, sp, want.start(name)})
			case k < 5 && len(stack) > 0:
				top := stack[len(stack)-1]
				key, v := keys[rng.Intn(len(keys))], rng.Int63n(1e6)
				top.sp.SetAttr(key, v)
				top.ref.SetAttr(key, v)
			case k < 7 && len(stack) > 0:
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				top.sp.End()
				want.end(top.ref)
			case k < 8:
				attrs := make([]Attr, rng.Intn(MaxAttrs+3))
				for i := range attrs {
					attrs[i] = Attr{Key: keys[rng.Intn(len(keys))], Value: rng.Int63()}
				}
				s := MakeSpan(rng.Uint64(), rng.Uint64(), "emitted", rng.Int63(), rng.Int63(), attrs...)
				got.Emit(s)
				want.Emit(s)
			default:
				op, d := dd.Op(rng.Intn(int(dd.NumOps)+1)), time.Duration(rng.Intn(500))
				got.ObserveOp(op, d)
				want.ddOp(op, d)
			}
			if step%97 == 0 || step == 2999 {
				gs, gd := got.Snapshot()
				ws, wd := want.Snapshot()
				if gd != wd || got.Dropped() != wd || hookDrops != wd {
					t.Fatalf("seed %d step %d: dropped %d (Dropped() %d, hook %d), reference %d", seed, step, gd, got.Dropped(), hookDrops, wd)
				}
				if got.Len() != len(ws) {
					t.Fatalf("seed %d step %d: Len() = %d, reference %d", seed, step, got.Len(), len(ws))
				}
				if !reflect.DeepEqual(gs, ws) {
					t.Fatalf("seed %d step %d: snapshot differs from the reference\ngot  %+v\nwant %+v", seed, step, gs, ws)
				}
			}
		}
	}
}
