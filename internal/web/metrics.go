package web

// Server metrics: HTTP traffic, session lifecycle, and the aggregated
// DD engine view over all live sessions.
//
// Hot-path series (request counters, latency histograms, in-flight
// gauge) are updated inline by the middleware — atomic and
// allocation-free. Point-in-time gauges (active sessions, tombstones,
// DD table loads) are refreshed at scrape time by collect(), which
// reads each session's atomically published stats snapshot
// (dd.Pkg.LastStats) — it never takes a session lock, so a scrape
// cannot stall behind a long fast-forward, and a mid-step GC cannot
// race the reader.

import (
	"net/http"
	"time"

	"quantumdd/internal/dd"
	"quantumdd/internal/obs"
	"quantumdd/internal/obs/trace"
)

type serverMetrics struct {
	registry *obs.Registry
	dd       *obs.DDCollector
	shape    *obs.ShapeCollector

	// Middleware-maintained traffic series.
	reqByClass  [6]*obs.Counter // index = status/100; 0 unused
	reqDuration *obs.Histogram
	inFlight    *obs.Gauge
	panics      *obs.Counter

	// Session lifecycle; the arrays are indexed by session kind.
	active       [numKinds]*obs.Gauge
	tombstones   [numKinds]*obs.Gauge
	created      [numKinds]*obs.Counter
	evictedLRU   *obs.Counter
	evictedTTL   *obs.Counter
	reaperSweeps *obs.Counter

	// Durability: spill-to-disk and restore lifecycle (PR 6). Nil-safe
	// to read — they are registered unconditionally even when spilling
	// is disabled, so dashboards see stable zero series.
	spills          [numKinds]*obs.Counter
	spillFailures   [numKinds]*obs.Counter
	restores        [numKinds]*obs.Counter
	restoreFailures [numKinds]*obs.Counter
	corruptions     [numKinds]*obs.Counter
	spillSeconds    *obs.Histogram
	restoreSeconds  *obs.Histogram
	spillBytes      *obs.Gauge
	spillSnapshots  *obs.Gauge

	// Parallel trajectory engine (PR 7): noisy-ensemble throughput.
	trajectoriesCompleted *obs.Counter
	trajectorySeconds     *obs.Histogram
	noisyWorkers          *obs.Gauge

	// Flight-recorder accounting across all sessions.
	spansDropped *obs.Counter

	// Live telemetry stream (PR 8). Registered unconditionally so the
	// family inventory is stable whether or not sampling is enabled.
	liveClients *obs.Gauge
	liveEvicted *obs.Counter
	liveFrames  *obs.Counter
}

// Session kinds index the per-kind series and Server.kinds, in the
// order their series are registered and swept.
const (
	kindSim = iota
	kindVerify
	numKinds
)

// kindLabels are the kinds' metric and log labels and id prefixes.
var kindLabels = [numKinds]string{"sim", "verify"}

// byKind registers one family with a series per session kind.
func byKind[M any](series func(name, help string, labels ...obs.Label) M, name, help string) (out [numKinds]M) {
	for k := range out {
		out[k] = series(name, help, obs.L("kind", kindLabels[k]))
	}
	return out
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	// Process identity first, so process_start_time_seconds and
	// build_info lead the exposition regardless of what else registers.
	obs.RegisterProcessMetrics(r)
	m := &serverMetrics{registry: r, dd: obs.NewDDCollector(r), shape: obs.NewShapeCollector(r)}
	classes := [6]string{"", "1xx", "2xx", "3xx", "4xx", "5xx"}
	for i := 1; i < len(classes); i++ {
		m.reqByClass[i] = r.Counter("http_requests_total",
			"HTTP requests served, by status class.", obs.L("code", classes[i]))
	}
	m.reqDuration = r.Histogram("http_request_duration_seconds",
		"End-to-end request latency.", obs.LatencyBuckets)
	m.inFlight = r.Gauge("http_requests_in_flight",
		"Requests currently being served.")
	m.panics = r.Counter("http_panics_recovered_total",
		"Handler panics recovered by the middleware.")
	m.active = byKind(r.Gauge, "sessions_active",
		"Live sessions, by kind.")
	m.tombstones = byKind(r.Gauge, "session_tombstones",
		"Evicted session ids remembered for 410 answers, by kind.")
	m.created = byKind(r.Counter, "sessions_created_total",
		"Sessions created, by kind.")
	m.evictedLRU = r.Counter("sessions_evicted_total",
		"Sessions evicted, by reason.", obs.L("reason", "lru"))
	m.evictedTTL = r.Counter("sessions_evicted_total",
		"Sessions evicted, by reason.", obs.L("reason", "ttl"))
	m.reaperSweeps = r.Counter("session_reaper_sweeps_total",
		"Idle-session reaper sweeps completed.")
	m.spills = byKind(r.Counter, "session_spills_total",
		"Sessions spilled to disk on eviction, by kind.")
	m.spillFailures = byKind(r.Counter, "session_spill_failures_total",
		"Spill writes that failed after retries (session degraded to tombstone), by kind.")
	m.restores = byKind(r.Counter, "session_restores_total",
		"Sessions transparently restored from the spill store, by kind.")
	m.restoreFailures = byKind(r.Counter, "session_restore_failures_total",
		"Restore attempts that degraded to a tombstone, by kind.")
	m.corruptions = byKind(r.Counter, "snapshot_corruptions_total",
		"Snapshots rejected for checksum, truncation, or format damage, by kind.")
	m.spillSeconds = r.Histogram("session_spill_seconds",
		"Durable spill write latency (encode excluded).", obs.LatencyBuckets)
	m.restoreSeconds = r.Histogram("session_restore_seconds",
		"Session restore latency (fetch, decode, rebuild).", obs.LatencyBuckets)
	m.spillBytes = r.Gauge("spill_store_bytes",
		"Total bytes in the spill store.")
	m.spillSnapshots = r.Gauge("spill_store_snapshots",
		"Snapshots currently in the spill store.")
	m.trajectoriesCompleted = r.Counter("trajectories_completed_total",
		"Monte-Carlo noise trajectories completed by the /api/noisy pool.")
	m.trajectorySeconds = r.Histogram("trajectory_seconds",
		"Wall-clock duration of one completed noise trajectory.", obs.LatencyBuckets)
	m.noisyWorkers = r.Gauge("noisy_workers",
		"Trajectory pool width used by the most recent /api/noisy ensemble.")
	m.spansDropped = r.Counter("trace_spans_dropped_total",
		"Spans evicted from per-session flight recorders (ring buffer at capacity).")
	m.liveClients = r.Gauge("live_stream_clients",
		"Clients currently connected to the /debug/live SSE stream.")
	m.liveEvicted = r.Counter("live_stream_clients_evicted_total",
		"Live-stream clients evicted for not keeping up with the frame rate.")
	m.liveFrames = r.Counter("live_stream_frames_total",
		"Telemetry frames broadcast to the live stream.")
	return m
}

// observeStatus counts a finished request under its status class.
func (m *serverMetrics) observeStatus(status int) {
	class := status / 100
	if class < 1 || class > 5 {
		class = 5
	}
	m.reqByClass[class].Inc()
}

// collect refreshes the point-in-time gauges: session counts and the
// DD aggregate over every live session's last published snapshot.
func (s *Server) collect() {
	m := s.metrics
	for k, kind := range s.kinds() {
		m.active[k].Set(float64(kind.reg.size()))
		m.tombstones[k].Set(float64(kind.reg.tombCount()))
	}
	if s.spill != nil {
		m.spillBytes.Set(float64(s.spill.store.Bytes()))
		m.spillSnapshots.Set(float64(s.spill.store.Len()))
	}

	// forEachSession hands idle sessions over with their lock held
	// (fresh=true): those get a forced PublishStats first, so a scrape
	// right after a short burst of activity (fewer ops than the
	// publish stride, no GC) still observes current table loads and
	// node counts instead of a snapshot up to 31 operations old. Busy
	// sessions fall back to the race-clean LastStats read.
	// Shape aggregation rides the same sweep: each kind's gauges track
	// the largest recently profiled diagram across sessions (the one a
	// blowup would show up in first), and the profile counters sum the
	// per-session sequence numbers. Idle sessions that never crossed the
	// sampling stride get one forced profile here so short-lived
	// sessions are not invisible; busy ones read race-clean snapshots.
	var agg dd.Stats
	pkgs := 0
	var shapes [numKinds]*dd.ShapeProfile
	var profiles [numKinds]uint64
	s.forEachSession(func(k int, id string, sess session, fresh bool) {
		p := sess.ddPkg()
		if fresh {
			p.PublishStats()
			if p.ShapeInterval() > 0 && p.LastShape() == nil {
				sess.publishShape()
			}
		}
		if st, ok := p.LastStats(); ok {
			agg = agg.Add(st)
			pkgs++
		}
		if sp := p.LastShape(); sp != nil {
			shapes[k] = obs.MaxShape(shapes[k], sp)
			profiles[k] += sp.Seq
		}
	})
	if pkgs > 1 {
		// Load factors are per-package ratios; expose the mean.
		agg.UniqueLoadV /= float64(pkgs)
		agg.UniqueLoadM /= float64(pkgs)
	}
	m.dd.Record(agg)
	m.shape.Record(shapes[kindSim], shapes[kindVerify], profiles[kindSim], profiles[kindVerify])
}

// forEachSession visits every live session, sims first, with its kind
// index; fresh is as in registry.forEach.
func (s *Server) forEachSession(f func(k int, id string, sess session, fresh bool)) {
	for k, kind := range s.kinds() {
		kind.reg.forEach(func(id string, sess session, fresh bool) { f(k, id, sess, fresh) })
	}
}

// MetricsHandler serves this server's registry in Prometheus text
// format, refreshing the session gauges first. It backs both the
// public GET /metrics route and the admin listener of cmd/ddvis.
func (s *Server) MetricsHandler() http.Handler {
	inner := obs.Handler(s.metrics.registry)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.collect()
		inner.ServeHTTP(w, r)
	})
}

// Metrics exposes the server's registry for embedding callers.
func (s *Server) Metrics() *obs.Registry { return s.metrics.registry }

// sessionObserver is a session's one engine observer: every top-level
// DD operation feeds the shared latency histograms, the session's
// resource account and its flight recorder.
type sessionObserver struct {
	coll *obs.DDCollector
	acct *sessionAccount
	rec  *trace.Recorder
}

func (o *sessionObserver) ObserveOp(op dd.Op, d time.Duration) {
	o.coll.ObserveOp(op, d)
	o.acct.ObserveOp(op, d)
	o.rec.ObserveOp(op, d)
}

// instrument gives a fresh or restored session its flight recorder
// (trace.DefaultCapacity spans; ring evictions feed
// trace_spans_dropped_total) and installs the session observer on its
// DD package.
func (s *Server) instrument(id string, sess session) {
	b := sess.base()
	b.rec = trace.NewRecorder(id, trace.DefaultCapacity)
	b.rec.OnDrop(s.metrics.spansDropped.Inc)
	p := sess.ddPkg()
	// The one per-session engine-setup choke point (it covers fresh and
	// spill-restored sessions alike), so the shape profiling stride is
	// installed here too.
	p.SetShapeInterval(s.shapeInterval())
	p.SetObserver(&sessionObserver{coll: s.metrics.dd, acct: b.acct, rec: b.rec})
}
