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

	// Session lifecycle.
	simsActive      *obs.Gauge
	verifiesActive  *obs.Gauge
	simsTombs       *obs.Gauge
	verifiesTombs   *obs.Gauge
	simsCreated     *obs.Counter
	verifiesCreated *obs.Counter
	evictedLRU      *obs.Counter
	evictedTTL      *obs.Counter
	reaperSweeps    *obs.Counter

	// Durability: spill-to-disk and restore lifecycle (PR 6). Nil-safe
	// to read — they are registered unconditionally even when spilling
	// is disabled, so dashboards see stable zero series.
	simsSpilled           *obs.Counter
	verifiesSpilled       *obs.Counter
	simSpillFailures      *obs.Counter
	verifySpillFailures   *obs.Counter
	simsRestored          *obs.Counter
	verifiesRestored      *obs.Counter
	simRestoreFailures    *obs.Counter
	verifyRestoreFailures *obs.Counter
	simCorruptions        *obs.Counter
	verifyCorruptions     *obs.Counter
	spillSeconds          *obs.Histogram
	restoreSeconds        *obs.Histogram
	spillBytes            *obs.Gauge
	spillSnapshots        *obs.Gauge

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

// corruptions selects the corruption counter for a session kind.
func (m *serverMetrics) corruptions(kind string) *obs.Counter {
	if kind == "verify" {
		return m.verifyCorruptions
	}
	return m.simCorruptions
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
	m.simsActive = r.Gauge("sessions_active",
		"Live sessions, by kind.", obs.L("kind", "sim"))
	m.verifiesActive = r.Gauge("sessions_active",
		"Live sessions, by kind.", obs.L("kind", "verify"))
	m.simsTombs = r.Gauge("session_tombstones",
		"Evicted session ids remembered for 410 answers, by kind.", obs.L("kind", "sim"))
	m.verifiesTombs = r.Gauge("session_tombstones",
		"Evicted session ids remembered for 410 answers, by kind.", obs.L("kind", "verify"))
	m.simsCreated = r.Counter("sessions_created_total",
		"Sessions created, by kind.", obs.L("kind", "sim"))
	m.verifiesCreated = r.Counter("sessions_created_total",
		"Sessions created, by kind.", obs.L("kind", "verify"))
	m.evictedLRU = r.Counter("sessions_evicted_total",
		"Sessions evicted, by reason.", obs.L("reason", "lru"))
	m.evictedTTL = r.Counter("sessions_evicted_total",
		"Sessions evicted, by reason.", obs.L("reason", "ttl"))
	m.reaperSweeps = r.Counter("session_reaper_sweeps_total",
		"Idle-session reaper sweeps completed.")
	m.simsSpilled = r.Counter("session_spills_total",
		"Sessions spilled to disk on eviction, by kind.", obs.L("kind", "sim"))
	m.verifiesSpilled = r.Counter("session_spills_total",
		"Sessions spilled to disk on eviction, by kind.", obs.L("kind", "verify"))
	m.simSpillFailures = r.Counter("session_spill_failures_total",
		"Spill writes that failed after retries (session degraded to tombstone), by kind.", obs.L("kind", "sim"))
	m.verifySpillFailures = r.Counter("session_spill_failures_total",
		"Spill writes that failed after retries (session degraded to tombstone), by kind.", obs.L("kind", "verify"))
	m.simsRestored = r.Counter("session_restores_total",
		"Sessions transparently restored from the spill store, by kind.", obs.L("kind", "sim"))
	m.verifiesRestored = r.Counter("session_restores_total",
		"Sessions transparently restored from the spill store, by kind.", obs.L("kind", "verify"))
	m.simRestoreFailures = r.Counter("session_restore_failures_total",
		"Restore attempts that degraded to a tombstone, by kind.", obs.L("kind", "sim"))
	m.verifyRestoreFailures = r.Counter("session_restore_failures_total",
		"Restore attempts that degraded to a tombstone, by kind.", obs.L("kind", "verify"))
	m.simCorruptions = r.Counter("snapshot_corruptions_total",
		"Snapshots rejected for checksum, truncation, or format damage, by kind.", obs.L("kind", "sim"))
	m.verifyCorruptions = r.Counter("snapshot_corruptions_total",
		"Snapshots rejected for checksum, truncation, or format damage, by kind.", obs.L("kind", "verify"))
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
	m.simsActive.Set(float64(s.sims.size()))
	m.verifiesActive.Set(float64(s.verifies.size()))
	m.simsTombs.Set(float64(s.sims.tombCount()))
	m.verifiesTombs.Set(float64(s.verifies.tombCount()))
	if s.spill != nil {
		m.spillBytes.Set(float64(s.spill.store.Bytes()))
		m.spillSnapshots.Set(float64(s.spill.store.Len()))
	}

	// forEach hands idle sessions over with their lock held
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
	var vecShape, matShape *dd.ShapeProfile
	var vecProfiles, matProfiles uint64
	s.sims.forEach(func(id string, sess *simSession, fresh bool) {
		p := sess.sim.Pkg()
		if fresh {
			p.PublishStats()
			if p.ShapeInterval() > 0 && p.LastShape() == nil {
				p.PublishShapeV(sess.sim.State())
			}
		}
		if st, ok := p.LastStats(); ok {
			agg = agg.Add(st)
			pkgs++
		}
		if sp := p.LastShape(); sp != nil {
			vecShape = obs.MaxShape(vecShape, sp)
			vecProfiles += sp.Seq
		}
	})
	s.verifies.forEach(func(id string, sess *verifySession, fresh bool) {
		if fresh {
			sess.pkg.PublishStats()
			if sess.pkg.ShapeInterval() > 0 && sess.pkg.LastShape() == nil {
				sess.pkg.PublishShapeM(sess.x)
			}
		}
		if st, ok := sess.pkg.LastStats(); ok {
			agg = agg.Add(st)
			pkgs++
		}
		if sp := sess.pkg.LastShape(); sp != nil {
			matShape = obs.MaxShape(matShape, sp)
			matProfiles += sp.Seq
		}
	})
	if pkgs > 1 {
		// Load factors are per-package ratios; expose the mean.
		agg.UniqueLoadV /= float64(pkgs)
		agg.UniqueLoadM /= float64(pkgs)
	}
	m.dd.Record(agg)
	m.shape.Record(vecShape, matShape, vecProfiles, matProfiles)
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
// resource account and, when tracing is on, its flight recorder.
type sessionObserver struct {
	coll *obs.DDCollector
	acct *sessionAccount
	rec  *trace.Recorder // nil when tracing is disabled
}

func (o *sessionObserver) ObserveOp(op dd.Op, d time.Duration) {
	o.coll.ObserveOp(op, d)
	o.acct.ObserveOp(op, d)
	if o.rec != nil {
		o.rec.ObserveOp(op, d)
	}
}

// instrument installs the session observer on a session's DD package.
// Ring evictions feed trace_spans_dropped_total.
func (s *Server) instrument(p *dd.Pkg, rec *trace.Recorder, acct *sessionAccount) {
	// The one per-session engine-setup choke point (it covers fresh and
	// spill-restored sessions alike), so the shape profiling stride is
	// installed here too.
	p.SetShapeInterval(s.shapeInterval())
	if rec != nil {
		rec.OnDrop(s.metrics.spansDropped.Inc)
	}
	p.SetObserver(&sessionObserver{coll: s.metrics.dd, acct: acct, rec: rec})
}

// newRecorder creates a session's flight recorder, or nil when
// tracing is disabled (Config.TraceSpans < 0).
func (s *Server) newRecorder(id string) *trace.Recorder {
	if s.cfg.TraceSpans < 0 {
		return nil
	}
	return trace.NewRecorder(id, s.cfg.TraceSpans)
}
