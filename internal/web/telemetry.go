package web

// The live telemetry pipeline (PR 8).
//
// One background loop ties the observability subsystems together: on
// every tick it refreshes the scrape-time gauges (collect), records
// each live session's cumulative DD work as auto-pruned tsdb series,
// sweeps every registered metric family into the in-process
// time-series store, evaluates the watchdog rules over the retained
// windows, and broadcasts an incremental frame to the /debug/live
// subscribers. Everything hangs off this one tick, so a single
// Config.SampleInterval governs the freshness of the tsdb, the SLO
// burn-rate math behind /readyz, the watchdog, and the live stream.

import (
	"fmt"
	"time"

	"quantumdd/internal/obs/tsdb"
)

// Watchdog thresholds. Deliberately coarse: the watchdog flags
// operator-grade anomalies (a GC pause spike, a cache collapse, spill
// corruption), not per-request noise.
const (
	// watchGCPauseP99 flags a windowed p99 GC pause above this.
	watchGCPauseP99 = 100 * time.Millisecond
	// watchCTHitFloor flags a windowed hit ratio (Δhits/Δlookups) of
	// the vector-apply compute table below this while the table is
	// under real load (hit-rate collapse).
	watchCTHitFloor = 0.05
	// watchCTMinLookups is the load floor for the collapse rule: the
	// table's lookups over the window, so an idle engine's 0/0 ratio
	// never fires it.
	watchCTMinLookups = 1000.0
	// watchCTTable selects the collapse rule's compute table.
	watchCTTable = `table="apply_v"`
	// watchBlowupFactor fires the node-blowup rule when the widest DD
	// level grew by more than this factor over the window (or appeared
	// from nothing at all) — exponential growth crosses any factor
	// within a window or two, while legitimate plateaus never do.
	watchBlowupFactor = 4.0
	// watchBlowupMinNodes is the absolute occupancy floor of the
	// blowup rule: growth below it is noise on any hardware, so small
	// diagrams can quadruple freely without paging anyone.
	watchBlowupMinNodes = 512.0
)

// sessionLabels renders the tsdb label set of one session's recorded
// per-session series.
func sessionLabels(id string) string { return fmt.Sprintf("id=%q", id) }

// telemetry owns the sampling loop's moving parts.
type telemetry struct {
	store *tsdb.Store
	dog   *tsdb.Watchdog
	hub   *liveHub
	stop  chan struct{}
	done  chan struct{}
}

// newTelemetry builds the store, watchdog, and live hub on the
// server's registry. The loop itself is started by the caller.
func (s *Server) newTelemetry() *telemetry {
	st := tsdb.New(s.metrics.registry, tsdb.Config{
		Interval: s.cfg.SampleInterval,
		Capacity: tsdb.DefaultCapacity,
	})
	t := &telemetry{
		store: st,
		dog:   tsdb.NewWatchdog(st, s.metrics.registry, 0, s.watchdogRules()...),
		hub:   newLiveHub(s.metrics),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	return t
}

// watchdogRules are the built-in breach detectors over the retained
// telemetry. The window is the SLO window so one knob tunes both.
func (s *Server) watchdogRules() []tsdb.Rule {
	win := sloWindow
	return []tsdb.Rule{
		{
			Name: "gc_pause_spike",
			Check: func(q tsdb.Querier, now time.Time) (string, bool) {
				p99, ok := q.Quantile("dd_gc_pause_seconds", "", 0.99, win, now)
				if !ok || p99 <= watchGCPauseP99.Seconds() {
					return "", false
				}
				return fmt.Sprintf("p99 GC pause %.3fs over %s (threshold %s)", p99, win, watchGCPauseP99), true
			},
		},
		{
			Name: "ct_hit_collapse",
			Check: func(q tsdb.Querier, now time.Time) (string, bool) {
				lookups, ok := q.Delta("dd_compute_table_lookups", watchCTTable, win, now)
				if !ok || lookups < watchCTMinLookups {
					return "", false
				}
				hits, ok := q.Delta("dd_compute_table_hits", watchCTTable, win, now)
				if !ok || hits/lookups >= watchCTHitFloor {
					return "", false
				}
				return fmt.Sprintf("apply_v compute-table hit ratio %.3f over %.0f lookups in %s", hits/lookups, lookups, win), true
			},
		},
		{
			// Node-blowup early warning (the shape profiler's watchdog
			// leg): the widest level's occupancy is the predictor of
			// whether a DD workload stays feasible, so a rapid rise —
			// past the floor, by more than the growth factor within the
			// window — pages before the node budget kills the session.
			// The gauge aggregates the largest recently profiled
			// diagram per kind across sessions (see collect).
			Name: "node_blowup",
			Check: func(q tsdb.Querier, now time.Time) (string, bool) {
				for _, kind := range []string{`kind="vector"`, `kind="matrix"`} {
					latest, ok := q.Latest("dd_shape_max_level_nodes", kind)
					if !ok || latest.V < watchBlowupMinNodes {
						continue
					}
					growth, ok := q.Delta("dd_shape_max_level_nodes", kind, win, now)
					if !ok || growth <= 0 {
						continue
					}
					prev := latest.V - growth
					if prev > 0 && latest.V < prev*watchBlowupFactor {
						continue
					}
					level, _ := q.Latest("dd_shape_widest_level", kind)
					return fmt.Sprintf("%s DD level %.0f grew %.0f → %.0f nodes over %s (floor %.0f, factor %g)",
						kind, level.V, prev, latest.V, win, watchBlowupMinNodes, watchBlowupFactor), true
				}
				return "", false
			},
		},
		{
			Name: "spill_corruption",
			Check: func(q tsdb.Querier, now time.Time) (string, bool) {
				var n float64
				for _, kind := range []string{`kind="sim"`, `kind="verify"`} {
					if d, ok := q.Delta("snapshot_corruptions_total", kind, win, now); ok {
						n += d
					}
				}
				if n <= 0 {
					return "", false
				}
				return fmt.Sprintf("%.0f corrupt snapshot(s) rejected over %s", n, win), true
			},
		},
	}
}

// telemetryLoop is the background ticker; it exits when Close fires
// the stop channel.
func (s *Server) telemetryLoop() {
	defer close(s.tele.done)
	t := time.NewTicker(s.cfg.SampleInterval)
	defer t.Stop()
	for {
		select {
		case <-s.tele.stop:
			return
		case now := <-t.C:
			s.sampleTelemetry(now)
		}
	}
}

// sampleTelemetry runs one full telemetry tick at now. Split from the
// loop so tests drive ticks deterministically.
func (s *Server) sampleTelemetry(now time.Time) {
	// Refresh the scrape-time gauges first so the sweep below samples
	// current session counts and DD aggregates, not the last scrape's.
	s.collect()
	usage := s.sessionUsageSnapshot()
	for _, u := range usage {
		labels := sessionLabels(u.ID)
		// Cumulative per-session meters: windowed Rate/Delta over these
		// recorded series yields the per-session dd.Stats deltas without
		// ever exposing per-session label cardinality on /metrics. The
		// tsdb prunes them automatically once the session goes away.
		s.tele.store.Record("session_dd_ops", labels, float64(u.DDOps), now)
		s.tele.store.Record("session_dd_seconds", labels, u.DDSeconds, now)
		s.tele.store.Record("session_live_nodes", labels, float64(u.LiveNodes), now)
		s.tele.store.Record("session_nodes_created", labels, float64(u.NodesCreated), now)
		// Structural timeline: the shape profiler's per-session series,
		// feeding GET /debug/sessions/{id}/shape and shape_timeline.json
		// in debug bundles. Only recorded once a profile exists, so
		// disabled-profiler sessions add no series at all.
		if u.ShapeSeq > 0 {
			s.tele.store.Record("session_shape_nodes", labels, float64(u.ShapeNodes), now)
			s.tele.store.Record("session_shape_max_level_nodes", labels, float64(u.ShapeMaxLevelNodes), now)
			s.tele.store.Record("session_shape_sharing", labels, u.ShapeSharing, now)
			s.tele.store.Record("session_shape_identity_fraction", labels, u.ShapeIdentityFraction, now)
		}
	}
	s.tele.store.SampleOnce(now)
	s.tele.dog.Evaluate(now)
	s.tele.hub.broadcast(s.liveFrameBytes(now, usage))
}

// stopTelemetry shuts the loop down and disconnects live clients;
// called once from Close.
func (s *Server) stopTelemetry() {
	if s.tele == nil {
		return
	}
	close(s.tele.stop)
	<-s.tele.done
	s.tele.hub.closeAll()
}

// WatchdogEvents returns the retained watchdog events, oldest first
// (nil when sampling is disabled).
func (s *Server) WatchdogEvents() []tsdb.Event {
	if s.tele == nil {
		return nil
	}
	return s.tele.dog.Events()
}
