// Package obs is the observability layer of the reproduction: a
// zero-dependency metrics registry with Prometheus text exposition,
// an HTTP handler for scraping, an admin mux bundling pprof and
// expvar, and a collector bridging the dd engine's counters into
// fleet-readable time series.
//
// The registry is built for hot paths: counter increments, gauge
// stores and histogram observations are single atomic operations and
// allocate nothing. Registration (which takes a lock and allocates)
// happens once at startup; get-or-create semantics make repeated
// registration of the same series return the existing handle, so
// several servers in one process can share the Default registry.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a series. Series of the
// same family (metric name) with different label sets are distinct.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates the exposition TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing value. All methods are safe
// for concurrent use and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as atomic float
// bits. All methods are safe for concurrent use and allocation-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; use Set where a full value is available).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. The bucket layout
// is immutable after registration; Observe is a binary search plus two
// atomic adds and one CAS, with no allocation.
type Histogram struct {
	bounds []float64 // upper bounds, strictly increasing; +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSeconds records a duration given in nanoseconds as seconds —
// the unit every *_seconds family uses.
func (h *Histogram) ObserveSeconds(ns int64) { h.Observe(float64(ns) / 1e9) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// LatencyBuckets is the default bucket layout for *_seconds latency
// histograms: roughly log-spaced from 1µs to 10s, resolving both the
// sub-millisecond DD operations and multi-second fast-forwards.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// series is one labelled instance inside a family.
type series struct {
	labels string // rendered `k1="v1",k2="v2"` or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	ordered []*series
	byLabel map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	ordered  []*family
}

// Default is the process-wide registry the servers and CLI tools use
// unless given their own.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter series name{labels...}, registering it
// on first use. Registering an existing series returns the same
// handle; re-registering a name with a different kind panics.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.series(name, help, kindCounter, labels)
	return s.c
}

// Gauge returns the gauge series name{labels...}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.series(name, help, kindGauge, labels)
	return s.g
}

// Histogram returns the histogram series name{labels...} with the
// given bucket upper bounds (strictly increasing; +Inf is implicit).
// The bounds of an already-registered series are not changed.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds must be strictly increasing", name))
		}
	}
	s := r.seriesWith(name, help, kindHistogram, labels, func() *series {
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Uint64, len(bounds)+1)
		return &series{h: h}
	})
	return s.h
}

func (r *Registry) series(name, help string, kind metricKind, labels []Label) *series {
	return r.seriesWith(name, help, kind, labels, func() *series {
		switch kind {
		case kindCounter:
			return &series{c: &Counter{}}
		default:
			return &series{g: &Gauge{}}
		}
	})
}

func (r *Registry) seriesWith(name, help string, kind metricKind, labels []Label, mk func() *series) *series {
	lbl := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byLabel: make(map[string]*series)}
		r.families[name] = f
		r.ordered = append(r.ordered, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	if s := f.byLabel[lbl]; s != nil {
		return s
	}
	s := mk()
	s.labels = lbl
	f.byLabel[lbl] = s
	f.ordered = append(f.ordered, s)
	return s
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies the Prometheus label-value escaping rules: in
// label values, backslash, double-quote and line feed must be escaped
// (text exposition format 0.0.4).
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp applies the HELP-line escaping rules: only backslash and
// line feed are escaped there — a double quote is legal in HELP text
// and must pass through verbatim.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// WritePrometheus renders every family in registration order in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family{}, r.ordered...)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.ordered {
			switch f.kind {
			case kindCounter:
				writeSeries(bw, f.name, s.labels, "", strconv.FormatUint(s.c.Value(), 10))
			case kindGauge:
				writeSeries(bw, f.name, s.labels, "", formatFloat(s.g.Value()))
			case kindHistogram:
				writeHistogram(bw, f.name, s.labels, s.h)
			}
		}
	}
	return bw.Flush()
}

func writeHistogram(w *bufio.Writer, name, labels string, h *Histogram) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeSeries(w, name+"_bucket", labels, `le="`+formatFloat(bound)+`"`, strconv.FormatUint(cum, 10))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSeries(w, name+"_bucket", labels, `le="+Inf"`, strconv.FormatUint(cum, 10))
	writeSeries(w, name+"_sum", labels, "", formatFloat(h.Sum()))
	writeSeries(w, name+"_count", labels, "", strconv.FormatUint(h.Count(), 10))
}

func writeSeries(w *bufio.Writer, name, labels, extra, value string) {
	w.WriteString(name)
	if labels != "" || extra != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		if labels != "" && extra != "" {
			w.WriteByte(',')
		}
		w.WriteString(extra)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SeriesPoint is a point-in-time reading of one series, handed to the
// VisitSeries callback. For histograms, Value carries the observation
// count, Sum the observation sum, Bounds the bucket upper bounds
// (without the implicit +Inf) and Counts the per-bucket totals
// (len(Bounds)+1 entries, the last being the +Inf bucket; counts are
// raw per-bucket, not cumulative). Bounds and Counts are scratch
// storage owned by the walk — copy them before the callback returns.
type SeriesPoint struct {
	Name   string
	Labels string // rendered `k1="v1",k2="v2"` or ""
	Kind   string // "counter", "gauge", or "histogram"
	Value  float64
	Sum    float64
	Bounds []float64
	Counts []uint64
}

// VisitSeries reads every registered series once and passes the
// current value to f in registration order. It does not run the
// gather hooks — callers sampling periodically (the tsdb sampler)
// refresh point-in-time gauges themselves before visiting, so one
// refresh serves the whole sweep.
func (r *Registry) VisitSeries(f func(p SeriesPoint)) {
	r.mu.Lock()
	fams := append([]*family{}, r.ordered...)
	r.mu.Unlock()
	var counts []uint64
	for _, fam := range fams {
		for _, s := range fam.ordered {
			p := SeriesPoint{Name: fam.name, Labels: s.labels, Kind: fam.kind.String()}
			switch fam.kind {
			case kindCounter:
				p.Value = float64(s.c.Value())
			case kindGauge:
				p.Value = s.g.Value()
			case kindHistogram:
				h := s.h
				p.Value = float64(h.Count())
				p.Sum = h.Sum()
				p.Bounds = h.bounds
				if cap(counts) < len(h.counts) {
					counts = make([]uint64, len(h.counts))
				}
				counts = counts[:len(h.counts)]
				for i := range h.counts {
					counts[i] = h.counts[i].Load()
				}
				p.Counts = counts
			}
			f(p)
		}
	}
}
