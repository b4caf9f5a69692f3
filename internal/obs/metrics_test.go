package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter value = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "help")
	g.Set(2.5)
	g.Add(-1)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge value = %g, want 1.5", got)
	}
}

func TestGetOrCreateReturnsSameHandle(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "help", L("k", "v"))
	b := r.Counter("dup_total", "help", L("k", "v"))
	if a != b {
		t.Fatal("re-registering the same series must return the same handle")
	}
	other := r.Counter("dup_total", "help", L("k", "w"))
	if a == other {
		t.Fatal("different label sets must be distinct series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name must panic")
		}
	}()
	r.Gauge("clash", "help")
}

// TestHistogramBucketBoundaries pins the le-bucket semantics: an
// observation equal to a bound lands in that bound's bucket
// (Prometheus buckets are upper-inclusive), one just above it lands
// in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "help", []float64{0.1, 0.5, 1})
	h.Observe(0.1)  // le="0.1"
	h.Observe(0.11) // le="0.5"
	h.Observe(0.5)  // le="0.5"
	h.Observe(1.0)  // le="1"
	h.Observe(99)   // +Inf
	want := []uint64{1, 2, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d count = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-100.71) > 1e-9 {
		t.Errorf("sum = %g, want 100.71", h.Sum())
	}
}

// TestTallyAddMatchesObserve observes the same values into one
// histogram directly and into another through two merged tallies:
// buckets, count and sum agree, and a tally over other bounds is
// refused.
func TestTallyAddMatchesObserve(t *testing.T) {
	r := NewRegistry()
	direct := r.Histogram("direct_seconds", "help", LatencyBuckets)
	added := r.Histogram("added_seconds", "help", LatencyBuckets)
	a, b := NewTally(LatencyBuckets), NewTally(LatencyBuckets)
	for i, v := range []float64{0, 1e-6, 3e-6, 2.5e-4, 0.7, 10, 11, 4e-3} {
		direct.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	added.Add(&a)
	for i := range direct.counts {
		if got, want := added.counts[i].Load(), direct.counts[i].Load(); got != want {
			t.Errorf("bucket %d count = %d, want %d", i, got, want)
		}
	}
	if added.Count() != 8 || direct.Count() != 8 {
		t.Errorf("counts: added %d, direct %d; want 8", added.Count(), direct.Count())
	}
	if math.Abs(added.Sum()-direct.Sum()) > 1e-12 {
		t.Errorf("sum = %g, want %g", added.Sum(), direct.Sum())
	}
	defer func() {
		if recover() == nil {
			t.Error("a tally over other bounds was added")
		}
	}()
	other := NewTally([]float64{1})
	added.Add(&other)
}

// TestExposition is the format golden test: a scripted registry must
// render byte-for-byte into the expected Prometheus text format,
// including cumulative histogram buckets and escaped label values.
func TestExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("http_requests_total", "Requests served.", L("code", "2xx")).Add(7)
	r.Counter("http_requests_total", "Requests served.", L("code", "5xx")).Inc()
	r.Gauge("sessions_active", "Live sessions.", L("kind", "sim")).Set(3)
	h := r.Histogram("op_seconds", "Op latency.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(7)
	r.Gauge("weird", "Escapes.", L("path", "a\"b\\c\nd")).Set(1)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP http_requests_total Requests served.
# TYPE http_requests_total counter
http_requests_total{code="2xx"} 7
http_requests_total{code="5xx"} 1
# HELP sessions_active Live sessions.
# TYPE sessions_active gauge
sessions_active{kind="sim"} 3
# HELP op_seconds Op latency.
# TYPE op_seconds histogram
op_seconds_bucket{le="0.01"} 2
op_seconds_bucket{le="0.1"} 3
op_seconds_bucket{le="+Inf"} 4
op_seconds_sum 7.06
op_seconds_count 4
# HELP weird Escapes.
# TYPE weird gauge
weird{path="a\"b\\c\nd"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "help").Inc()
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q lacks exposition version", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Fatalf("body missing series: %s", rec.Body.String())
	}
}

func TestAdminMuxEndpoints(t *testing.T) {
	mux := AdminMuxWith(Handler(NewRegistry()))
	for _, path := range []string{"/healthz", "/metrics", "/debug/vars", "/debug/pprof/"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}

// TestHotPathAllocationFree is the acceptance guard: counter
// increments, gauge stores and histogram observations must not
// allocate.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "help")
	g := r.Gauge("alloc_gauge", "help")
	h := r.Histogram("alloc_seconds", "help", LatencyBuckets)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(3.14) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(0.5) }); n != 0 {
		t.Errorf("Gauge.Add allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.0042) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f per op, want 0", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "help")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "help", LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.00037)
	}
}
