// Package trace is the span-tracing layer of the reproduction: a
// zero-dependency tracer whose spans form a tree — HTTP request →
// session operation (step / measure / verify round) → gate application
// → top-level DD operation, or HTTP request → fast-forward, a folding
// span that sums its gates' DD operations (Fold) — and a bounded
// per-session flight recorder holding the most recent completed spans.
//
// DD behavior is wildly instance-dependent (Wille et al., CSUR 2022),
// so aggregate histograms cannot answer "where did THIS step's time
// and nodes go". The flight recorder can: every session keeps a
// fixed-capacity ring buffer of completed spans (oldest evicted, with
// an exact dropped-span count), cheap enough to leave on in
// production and exportable at any moment as Chrome trace-event JSON
// (chrome.go) — loadable in chrome://tracing or https://ui.perfetto.dev
// without installing anything, in the spirit of the paper's tool.
//
// Hot-path costs: with no recorder attached to the context, StartSpan
// is two context lookups and allocates nothing — the disabled path is
// guarded by an AllocsPerRun test. With a recorder attached, starting
// a span allocates only the derived context: active spans come from a
// free list the recorder owns, and End returns them to it. Completing
// a span writes a compact record (ID, parent, name, start, duration,
// attribute count; 56 bytes) into the ring under the recorder mutex,
// plus its attributes, if any, into a FIFO side buffer that evicts in
// step with the ring. Both grow on demand up to capacity, so short
// sessions stay small. Snapshot rebuilds full Span values on read.
// Attributes of an active span live in a fixed-size inline array, so
// SetAttr never allocates.
//
// Concurrency: a Recorder belongs to one session, and sessions are
// single-goroutine by construction (the web server holds the
// per-session lock for the duration of a request; the CLIs are
// sequential). StartSpan/End and ObserveOp therefore run on the
// session's goroutine only; Snapshot and Dropped take the ring mutex
// and may be called from any goroutine (the trace exporter, the
// debug-bundle builder, a metrics scrape).
package trace

import (
	"context"
	"sync"
	"time"

	"quantumdd/internal/dd"
)

// MaxAttrs bounds the attributes one span can carry. SetAttr beyond
// the bound is dropped silently — attribute presence is best-effort
// diagnostics, not an API contract.
const MaxAttrs = 8

// Attr is one integer-valued span attribute (node counts, cache hits,
// op indices, microsecond pauses). Integer-only keeps spans
// fixed-size and SetAttr allocation-free.
type Attr struct {
	Key   string
	Value int64
}

// Span is one timed region. Start and Dur are nanoseconds relative to
// the recorder's epoch, so exported timelines start near zero and
// survive wall-clock adjustments (both derive from the monotonic
// reading of time.Since).
type Span struct {
	ID     uint64
	Parent uint64 // 0 = root
	Name   string
	Start  int64 // ns since the recorder epoch
	Dur    int64 // ns

	nattrs int
	attrs  [MaxAttrs]Attr

	// Active-span bookkeeping; nil on completed (snapshot) copies.
	rec  *Recorder
	prev *Span // enclosing active span, restored as current on End; next free span on the free list

	// A folding span counts the DD operations it absorbs (see Fold).
	fold           bool
	ddOps, ddNanos int64
}

// SetAttr attaches an integer attribute. Safe on a nil span (the
// disabled-tracer path) and on completed spans built with MakeSpan.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil || s.nattrs >= MaxAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Value: v}
	s.nattrs++
}

// Attrs returns the attached attributes. The slice aliases the span's
// inline storage; callers must not retain it past the span.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs[:s.nattrs]
}

// MakeSpan builds a completed span value — for tests and for callers
// synthesizing timelines to feed Recorder.Emit or WriteChromeTrace.
func MakeSpan(id, parent uint64, name string, startNS, durNS int64, attrs ...Attr) Span {
	s := Span{ID: id, Parent: parent, Name: name, Start: startNS, Dur: durNS}
	for _, a := range attrs {
		s.SetAttr(a.Key, a.Value)
	}
	return s
}

// Fold makes the span absorb the DD operations that complete while it
// is the recorder's current span: ObserveOp adds each to the span's
// operation count and time instead of recording a child span, and End
// attaches the sums as the dd_ops and dd_us attributes. A loop of
// hundreds of gates is then one span in the ring rather than hundreds,
// and the ring keeps the session's earlier timeline. Safe on a nil
// span. Fold only spans whose operations all run on the session's
// goroutine: the sums are not atomic.
func (s *Span) Fold() {
	if s != nil {
		s.fold = true
	}
}

// End completes the span: it computes the duration, restores the
// enclosing span as the recorder's current one, records the span in
// the flight-recorder ring and hands the Span back to the recorder
// for reuse. Safe on a nil span. A span must be ended exactly once, on
// the goroutine that started it and after its children; neither it
// nor a context carrying it may be used afterwards.
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.fold {
		s.SetAttr("dd_ops", s.ddOps)
		s.SetAttr("dd_us", s.ddNanos/1e3)
	}
	r := s.rec
	s.Dur = sinceEpoch(r.epoch) - s.Start
	r.current = s.prev
	r.emit(s.record(), s.attrs[:s.nattrs])
	s.prev = r.free
	r.free = s
}

// record is the ring form of a completed span: everything but the
// attributes, which the recorder keeps in its side buffer.
type record struct {
	id, parent uint64
	name       string
	start, dur int64
	nattrs     int
}

func (s *Span) record() record {
	return record{id: s.ID, parent: s.Parent, name: s.Name, start: s.Start, dur: s.Dur, nattrs: s.nattrs}
}

// sinceEpoch returns the nanoseconds elapsed since epoch on the
// monotonic clock. Tests replace it with a deterministic clock.
var sinceEpoch = func(epoch time.Time) int64 { return int64(time.Since(epoch)) }

// Recorder is the per-session flight recorder: a fixed-capacity ring
// of completed spans, oldest-evicted, with an exact eviction count.
type Recorder struct {
	name  string
	epoch time.Time
	cap   int

	mu      sync.Mutex
	ring    []record // grows up to cap, then wraps
	head    int      // index of the oldest record once the ring is full
	attrs   attrFIFO // attributes of the retained records, oldest first
	dropped uint64
	nextID  uint64

	// current is the innermost active span; free lists ended spans
	// for reuse, linked through prev. Owner-goroutine only — see the
	// package comment.
	current *Span
	free    *Span

	// onDrop, when set, observes each eviction — the web server wires
	// it to the trace_spans_dropped_total counter so the metric
	// reconciles exactly with the per-recorder Dropped count.
	onDrop func()
}

// attrFIFO holds the attributes of the ring's records in record
// order: a power-of-two circular buffer that grows on demand. Evicting
// a record pops its attributes from the front.
type attrFIFO struct {
	buf  []Attr
	head int // index of the oldest attribute
	n    int // attributes held
}

func (q *attrFIFO) push(attrs []Attr) {
	if q.n+len(attrs) > len(q.buf) {
		q.grow(q.n + len(attrs))
	}
	mask := len(q.buf) - 1
	for _, a := range attrs {
		q.buf[(q.head+q.n)&mask] = a
		q.n++
	}
}

func (q *attrFIFO) pop(k int) {
	if k > 0 {
		q.head = (q.head + k) & (len(q.buf) - 1)
		q.n -= k
	}
}

// at returns the i-th oldest attribute.
func (q *attrFIFO) at(i int) Attr { return q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *attrFIFO) grow(need int) {
	size := 2 * len(q.buf)
	if size < 2*MaxAttrs {
		size = 2 * MaxAttrs
	}
	for size < need {
		size *= 2
	}
	buf := make([]Attr, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.at(i)
	}
	q.buf, q.head = buf, 0
}

// DefaultCapacity is the flight-recorder size sessions get unless
// configured otherwise: enough for a few hundred gate steps with
// their DD-op children. A record takes 56 bytes and an attribute 24,
// so a full ring of traced steps holds roughly 100 KiB per session.
const DefaultCapacity = 1024

// NewRecorder creates a flight recorder holding up to capacity
// completed spans (DefaultCapacity when capacity <= 0). The name
// labels the session's track in exported timelines.
func NewRecorder(name string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{name: name, epoch: time.Now(), cap: capacity}
}

// Name returns the track label given at construction.
func (r *Recorder) Name() string { return r.name }

// OnDrop installs a hook observing each evicted span. Install before
// the recorder sees traffic; the hook runs outside the ring mutex.
func (r *Recorder) OnDrop(f func()) { r.onDrop = f }

// start begins a span, reusing an ended one when the free list has
// one. Owner-goroutine only.
func (r *Recorder) start(name string, parent *Span) *Span {
	id := r.nextSpanID()
	s := r.free
	if s != nil {
		r.free = s.prev
		*s = Span{}
	} else {
		s = new(Span)
	}
	s.ID, s.Name, s.Start = id, name, sinceEpoch(r.epoch)
	s.rec, s.prev = r, r.current
	if parent != nil {
		s.Parent = parent.ID
	} else if r.current != nil {
		s.Parent = r.current.ID
	}
	r.current = s
	return s
}

// Emit appends a completed span to the ring, evicting the oldest one
// when the recorder is at capacity. Spans built elsewhere (tests,
// synthesized timelines) enter the recorder through here; ID
// assignment is the caller's business.
func (r *Recorder) Emit(s Span) { r.emit(s.record(), s.attrs[:s.nattrs]) }

// emit appends one record and its attributes to the ring.
func (r *Recorder) emit(rec record, attrs []Attr) {
	var evicted bool
	r.mu.Lock()
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, rec)
	} else {
		r.attrs.pop(r.ring[r.head].nattrs)
		r.ring[r.head] = rec
		r.head++
		if r.head == r.cap {
			r.head = 0
		}
		r.dropped++
		evicted = true
	}
	r.attrs.push(attrs)
	r.mu.Unlock()
	if evicted && r.onDrop != nil {
		r.onDrop()
	}
}

// nextSpanID reserves an ID for a new span, keeping IDs unique within
// the recorder.
func (r *Recorder) nextSpanID() uint64 {
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	return id
}

// Snapshot returns the retained spans, oldest first, plus the number
// of spans evicted so far. Safe from any goroutine.
func (r *Recorder) Snapshot() ([]Span, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.ring))
	a := 0 // next attribute, in record order
	for _, part := range [2][]record{r.ring[r.head:], r.ring[:r.head]} {
		for _, rec := range part {
			s := Span{ID: rec.id, Parent: rec.parent, Name: rec.name, Start: rec.start, Dur: rec.dur, nattrs: rec.nattrs}
			for i := 0; i < rec.nattrs; i++ {
				s.attrs[i] = r.attrs.at(a)
				a++
			}
			out = append(out, s)
		}
	}
	return out, r.dropped
}

// Dropped returns the number of spans evicted from the ring so far.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len returns the number of retained spans.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// ddOpNames maps dd.Op to a stable pre-built span name, so the DD
// observer never concatenates strings on the hot path.
var ddOpNames = func() [dd.NumOps]string {
	var names [dd.NumOps]string
	for op := dd.Op(0); op < dd.NumOps; op++ {
		names[op] = "dd:" + op.String()
	}
	return names
}()

// ObserveOp makes the recorder a dd.Observer: every top-level DD
// operation (multmv, applygate, gc, …) becomes a child span of the
// recorder's current active span, or adds to its sums when that span
// folds (Fold). Operations completing while no span is active (e.g.
// diagram rendering outside a request span) are not recorded, which
// keeps the ring filled with request-attributable work.
//
// ObserveOp may be called from goroutines other than the session's
// only while the set of active spans is stable (the Monte-Carlo noise
// harness), since it reads the current span without the ring mutex.
func (r *Recorder) ObserveOp(op dd.Op, d time.Duration) {
	cur := r.current
	if cur == nil || op >= dd.NumOps {
		return
	}
	if cur.fold {
		cur.ddOps++
		cur.ddNanos += int64(d)
		return
	}
	end := sinceEpoch(r.epoch)
	r.emit(record{
		id:     r.nextSpanID(),
		parent: cur.ID,
		name:   ddOpNames[op],
		start:  end - int64(d),
		dur:    int64(d),
	}, nil)
}

// Context plumbing. Two keys: one for the recorder (attached once per
// request or run), one for the innermost span (rewritten by each
// StartSpan). Lookups on a context without either are allocation-free.
type ctxKey int

const (
	recorderKey ctxKey = iota
	spanKey
)

// With attaches a recorder to the context; spans started from derived
// contexts land in its ring. A nil recorder returns ctx unchanged.
func With(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey, r)
}

// FromContext returns the attached recorder, or nil.
func FromContext(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey).(*Recorder)
	return r
}

// Enabled reports whether spans started from this context are
// recorded — callers use it to skip building expensive span names and
// attributes on the disabled path.
func Enabled(ctx context.Context) bool {
	if _, ok := ctx.Value(spanKey).(*Span); ok {
		return true
	}
	return FromContext(ctx) != nil
}

// StartSpan begins a span under the context's current span (or as a
// root when none is active) and returns a derived context carrying it.
// Without a recorder attached it returns (ctx, nil) and allocates
// nothing; all Span methods tolerate nil receivers, so call sites need
// no branches.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey).(*Span)
	var r *Recorder
	if parent != nil {
		r = parent.rec
	} else if r, _ = ctx.Value(recorderKey).(*Recorder); r == nil {
		return ctx, nil
	}
	s := r.start(name, parent)
	return context.WithValue(ctx, spanKey, s), s
}
