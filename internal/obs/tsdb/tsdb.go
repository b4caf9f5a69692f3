// Package tsdb is an in-process, zero-dependency, bounded-memory
// time-series store. A sampler sweeps every series of an obs.Registry
// on a fixed interval into per-series ring buffers, retaining the last
// Capacity samples of each; windowed queries (latest value, counter
// rate, histogram quantile) turn the retained history into the signals
// health endpoints and watchdogs need — "is p99 step latency burning
// the SLO", "did the compute-table hit rate collapse" — without an
// external monitoring stack.
//
// Memory is bounded by construction: each scalar series costs
// Capacity × 16 bytes, each histogram series Capacity × (16 + 8 ×
// (buckets+2)) bytes, and the series count is capped by MaxSeries
// (samples × families × window = bounded bytes; see DESIGN.md).
// Beyond the cap, new series are counted as dropped rather than
// stored — retention degrades, the process does not.
package tsdb

import (
	"math"
	"sync"
	"time"

	"quantumdd/internal/obs"
)

// Config sizes the store. Zero values select the defaults.
type Config struct {
	// Interval is the sampling period the owner drives SampleOnce at.
	// The store uses it only to derive the staleness horizon for
	// externally recorded series; it does not run its own timer.
	Interval time.Duration
	// Capacity is the number of samples retained per series.
	Capacity int
	// MaxSeries caps the number of distinct series tracked.
	MaxSeries int
}

const (
	// DefaultCapacity retains 6 minutes at a 1s interval.
	DefaultCapacity = 360
	// DefaultMaxSeries bounds the series map; the registry of a fully
	// loaded server sits well under 1k series.
	DefaultMaxSeries = 4096
	// staleTicks is how many missed intervals evict an externally
	// recorded series (dead sessions must not pin ring memory).
	staleTicks = 8
)

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Capacity <= 0 {
		c.Capacity = DefaultCapacity
	}
	if c.MaxSeries <= 0 {
		c.MaxSeries = DefaultMaxSeries
	}
	return c
}

// Point is one retained sample.
type Point struct {
	T time.Time
	V float64
}

// ring is the fixed-size sample buffer of one series. Histogram rings
// additionally retain the observation sum and the cumulative
// per-bucket totals of every sample, so a window query can difference
// two samples into a windowed bucket distribution.
type ring struct {
	kind     string // "counter", "gauge", "histogram", or "recorded"
	external bool   // fed by Record, pruned when stale
	bounds   []float64
	ts       []int64   // unix nanos, parallel to vs
	vs       []float64 // counter/gauge/recorded value; histogram count
	sums     []float64 // histogram only
	buckets  []uint64  // histogram only: flat Capacity×(len(bounds)+1)
	head     int       // next write slot
	n        int       // valid samples
	lastT    int64
}

func (r *ring) nb() int { return len(r.bounds) + 1 }

func (r *ring) push(tns int64, v, sum float64, counts []uint64) {
	r.ts[r.head] = tns
	r.vs[r.head] = v
	if r.sums != nil {
		r.sums[r.head] = sum
		copy(r.buckets[r.head*r.nb():(r.head+1)*r.nb()], counts)
	}
	r.head = (r.head + 1) % len(r.ts)
	if r.n < len(r.ts) {
		r.n++
	}
	r.lastT = tns
}

// at returns the i-th retained sample, 0 = oldest.
func (r *ring) at(i int) int {
	return (r.head - r.n + i + len(r.ts)) % len(r.ts)
}

// Store holds the rings. All methods are safe for concurrent use; the
// owner typically drives SampleOnce from one goroutine while health
// and live-stream handlers query concurrently.
type Store struct {
	reg *obs.Registry
	cfg Config

	mu     sync.RWMutex
	series map[string]*ring

	samples       *obs.Counter
	seriesGauge   *obs.Gauge
	seriesDropped *obs.Counter
	bytesGauge    *obs.Gauge
}

// New creates a store sampling reg. The store registers its own meta
// families (tsdb_samples_total, tsdb_series, tsdb_series_dropped_total,
// tsdb_retained_bytes) on the same registry, so the sampler's health is
// visible through the surface it samples.
func New(reg *obs.Registry, cfg Config) *Store {
	cfg = cfg.withDefaults()
	return &Store{
		reg:    reg,
		cfg:    cfg,
		series: make(map[string]*ring),
		samples: reg.Counter("tsdb_samples_total",
			"Sampling sweeps completed by the in-process time-series store."),
		seriesGauge: reg.Gauge("tsdb_series",
			"Series currently retained by the in-process time-series store."),
		seriesDropped: reg.Counter("tsdb_series_dropped_total",
			"Series rejected because the store reached its series cap."),
		bytesGauge: reg.Gauge("tsdb_retained_bytes",
			"Approximate bytes of retained ring-buffer samples."),
	}
}

// Interval reports the configured sampling period.
func (s *Store) Interval() time.Duration { return s.cfg.Interval }

func key(name, labels string) string { return name + "\xff" + labels }

// SampleOnce sweeps every registry series into the rings, stamps the
// sweep at now, and prunes stale externally recorded series. The owner
// calls it on its telemetry tick, after refreshing gather-style gauges.
func (s *Store) SampleOnce(now time.Time) {
	tns := now.UnixNano()
	s.mu.Lock()
	s.reg.VisitSeries(func(p obs.SeriesPoint) {
		k := key(p.Name, p.Labels)
		r := s.series[k]
		if r == nil {
			r = s.newRingLocked(p.Kind, p.Bounds, false)
			if r == nil {
				return // series cap reached; counted
			}
			s.series[k] = r
		}
		if p.Kind == "histogram" {
			r.push(tns, p.Value, p.Sum, p.Counts)
		} else {
			r.push(tns, p.Value, 0, nil)
		}
	})
	// Prune externally recorded series that stopped arriving (dead
	// sessions); registry series refresh every sweep by construction.
	stale := tns - int64(staleTicks)*int64(s.cfg.Interval)
	for k, r := range s.series {
		if r.external && r.lastT < stale {
			delete(s.series, k)
		}
	}
	s.seriesGauge.Set(float64(len(s.series)))
	s.bytesGauge.Set(float64(s.retainedBytesLocked()))
	s.mu.Unlock()
	s.samples.Inc()
}

// newRingLocked allocates a ring, enforcing the series cap.
func (s *Store) newRingLocked(kind string, bounds []float64, external bool) *ring {
	if len(s.series) >= s.cfg.MaxSeries {
		s.seriesDropped.Inc()
		return nil
	}
	r := &ring{
		kind:     kind,
		external: external,
		ts:       make([]int64, s.cfg.Capacity),
		vs:       make([]float64, s.cfg.Capacity),
	}
	if kind == "histogram" {
		r.bounds = append([]float64(nil), bounds...)
		r.sums = make([]float64, s.cfg.Capacity)
		r.buckets = make([]uint64, s.cfg.Capacity*(len(bounds)+1))
	}
	return r
}

// Record appends one sample to an externally fed series — per-session
// engine deltas, pool depths, anything not worth a full Prometheus
// family. Recorded series are pruned automatically once they stop
// arriving, so per-session cardinality cannot accumulate.
func (s *Store) Record(name, labels string, v float64, now time.Time) {
	k := key(name, labels)
	s.mu.Lock()
	r := s.series[k]
	if r == nil {
		r = s.newRingLocked("recorded", nil, true)
		if r == nil {
			s.mu.Unlock()
			return
		}
		s.series[k] = r
	}
	r.push(now.UnixNano(), v, 0, nil)
	s.mu.Unlock()
}

// retainedBytesLocked approximates the ring memory held, the number
// DESIGN.md's retention math bounds.
func (s *Store) retainedBytesLocked() int64 {
	var b int64
	for _, r := range s.series {
		b += int64(len(r.ts))*16 + int64(len(r.sums))*8 + int64(len(r.buckets))*8
	}
	return b
}

// RetainedBytes reports the approximate ring memory held.
func (s *Store) RetainedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.retainedBytesLocked()
}

// SeriesCount reports the number of retained series.
func (s *Store) SeriesCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.series)
}

// Samples reports the number of completed sampling sweeps.
func (s *Store) Samples() uint64 { return s.samples.Value() }

// Latest returns the most recent sample of a series.
func (s *Store) Latest(name, labels string) (Point, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.series[key(name, labels)]
	if r == nil || r.n == 0 {
		return Point{}, false
	}
	i := r.at(r.n - 1)
	return Point{T: time.Unix(0, r.ts[i]), V: r.vs[i]}, true
}

// Window returns the retained samples of a series newer than
// now-window, oldest first.
func (s *Store) Window(name, labels string, window time.Duration, now time.Time) []Point {
	cut := now.Add(-window).UnixNano()
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.series[key(name, labels)]
	if r == nil {
		return nil
	}
	var out []Point
	for i := 0; i < r.n; i++ {
		idx := r.at(i)
		if r.ts[idx] >= cut {
			out = append(out, Point{T: time.Unix(0, r.ts[idx]), V: r.vs[idx]})
		}
	}
	return out
}

// windowEnds returns the ring indices of the oldest and newest samples
// inside the window, and whether at least two samples span it.
func (r *ring) windowEnds(cut int64) (i0, i1 int, ok bool) {
	if r.n == 0 {
		return 0, 0, false
	}
	i1 = r.at(r.n - 1)
	i0 = -1
	for i := 0; i < r.n; i++ {
		idx := r.at(i)
		if r.ts[idx] >= cut {
			i0 = idx
			break
		}
	}
	return i0, i1, i0 >= 0 && i0 != i1
}

// Rate returns the per-second increase of a counter-like series over
// the window. Counter resets (value decreasing) clamp to zero rather
// than reporting a negative rate. ok is false with fewer than two
// samples in the window.
func (s *Store) Rate(name, labels string, window time.Duration, now time.Time) (perSec float64, ok bool) {
	cut := now.Add(-window).UnixNano()
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.series[key(name, labels)]
	if r == nil {
		return 0, false
	}
	i0, i1, ok := r.windowEnds(cut)
	if !ok {
		return 0, false
	}
	dt := float64(r.ts[i1]-r.ts[i0]) / 1e9
	if dt <= 0 {
		return 0, false
	}
	dv := r.vs[i1] - r.vs[i0]
	if dv < 0 {
		dv = 0
	}
	return dv / dt, true
}

// Delta returns the increase of a counter-like series over the window
// (reset-clamped), with the same two-sample requirement as Rate.
func (s *Store) Delta(name, labels string, window time.Duration, now time.Time) (float64, bool) {
	cut := now.Add(-window).UnixNano()
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.series[key(name, labels)]
	if r == nil {
		return 0, false
	}
	i0, i1, ok := r.windowEnds(cut)
	if !ok {
		return 0, false
	}
	dv := r.vs[i1] - r.vs[i0]
	if dv < 0 {
		dv = 0
	}
	return dv, true
}

// Quantile estimates the q-quantile (0 < q < 1) of a histogram series
// over the window by differencing the cumulative bucket totals at the
// window's ends and interpolating linearly inside the target bucket —
// the standard histogram_quantile estimate. With only one retained
// sample the lifetime distribution is used (the best available answer
// right after boot). ok is false for unknown or non-histogram series
// or when the window saw no observations.
func (s *Store) Quantile(name, labels string, q float64, window time.Duration, now time.Time) (float64, bool) {
	if q <= 0 || q >= 1 {
		return 0, false
	}
	cut := now.Add(-window).UnixNano()
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.series[key(name, labels)]
	if r == nil || r.kind != "histogram" || r.n == 0 {
		return 0, false
	}
	nb := r.nb()
	i0, i1, spanned := r.windowEnds(cut)
	newest := r.buckets[i1*nb : (i1+1)*nb]
	delta := make([]float64, nb)
	if spanned {
		oldest := r.buckets[i0*nb : (i0+1)*nb]
		for i := range delta {
			d := float64(newest[i]) - float64(oldest[i])
			if d < 0 {
				d = 0 // reset
			}
			delta[i] = d
		}
	} else {
		for i := range delta {
			delta[i] = float64(newest[i])
		}
	}
	var total float64
	for _, d := range delta {
		total += d
	}
	if total == 0 {
		return 0, false
	}
	target := q * total
	var cum, lo float64
	for i, d := range delta {
		cum += d
		if cum >= target {
			if i == nb-1 {
				// +Inf bucket: the highest finite bound is the best
				// defensible estimate.
				return r.bounds[len(r.bounds)-1], true
			}
			hi := r.bounds[i]
			frac := 1.0
			if d > 0 {
				frac = (target - (cum - d)) / d
			}
			return lo + (hi-lo)*frac, true
		}
		if i < len(r.bounds) {
			lo = r.bounds[i]
		}
	}
	return r.bounds[len(r.bounds)-1], true
}

// Gauge-style convenience: LatestValue returns the newest sample value
// or def when the series is unknown or empty.
func (s *Store) LatestValue(name, labels string, def float64) float64 {
	p, ok := s.Latest(name, labels)
	if !ok || math.IsNaN(p.V) {
		return def
	}
	return p.V
}
