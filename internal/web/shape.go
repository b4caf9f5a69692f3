package web

// Diagram-structure observability (the shape profiler's web surface).
//
// GET /debug/sessions/{id}/shape serves a live structural profile of
// one session's diagram: the handler takes the session lock and
// profiles the *current* state (publishing it, so the metric gauges
// and timelines pick the same sample up), then decorates it with the
// retained per-session structural timeline from the telemetry store.
// The same timeline — for every live session — rides in debug bundles
// as shape_timeline.json, so a blowup that killed a session five
// minutes ago is still diagnosable from the bundle alone.

import (
	"errors"
	"net/http"
	"time"

	"quantumdd/internal/dd"
)

// defaultShapeInterval is the profiling stride when Config.ShapeInterval
// is zero. At stride 32 the O(nodes) profile walk amortizes to well
// under 1% of the per-step engine work (BENCH_pr10.json).
const defaultShapeInterval = 32

// shapeInterval resolves Config.ShapeInterval: 0 means the default
// stride, negative disables profiling.
func (s *Server) shapeInterval() int {
	switch {
	case s.cfg.ShapeInterval < 0:
		return 0
	case s.cfg.ShapeInterval == 0:
		return defaultShapeInterval
	default:
		return s.cfg.ShapeInterval
	}
}

// shapePoint is one timeline sample.
type shapePoint struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// shapeTimeline is the retained structural history of one session,
// pulled from the telemetry store's auto-pruned per-session series.
// Nil slices mean telemetry is disabled or the session is too young
// to have been swept.
type shapeTimeline struct {
	Nodes            []shapePoint `json:"nodes,omitempty"`
	MaxLevelNodes    []shapePoint `json:"maxLevelNodes,omitempty"`
	SharingFactor    []shapePoint `json:"sharingFactor,omitempty"`
	IdentityFraction []shapePoint `json:"identityFraction,omitempty"`
}

// shapeResponse is the GET /debug/sessions/{id}/shape payload.
type shapeResponse struct {
	ID   string `json:"id"`
	Kind string `json:"kind"` // "sim" or "verify"
	// Interval is the session's sampling stride (0 = disabled; the
	// profile below is still fresh — the endpoint forces one).
	Interval int             `json:"interval"`
	Profile  dd.ShapeProfile `json:"profile"`
	Timeline *shapeTimeline  `json:"timeline,omitempty"`
}

// shapeTimelineFor assembles the retained timeline of one session id,
// or nil when telemetry is disabled.
func (s *Server) shapeTimelineFor(id string, now time.Time) *shapeTimeline {
	if s.tele == nil {
		return nil
	}
	labels := sessionLabels(id)
	win := sloWindow
	pull := func(name string) []shapePoint {
		pts := s.tele.store.Window(name, labels, win, now)
		if len(pts) == 0 {
			return nil
		}
		out := make([]shapePoint, len(pts))
		for i, p := range pts {
			out[i] = shapePoint{T: p.T, V: p.V}
		}
		return out
	}
	return &shapeTimeline{
		Nodes:            pull("session_shape_nodes"),
		MaxLevelNodes:    pull("session_shape_max_level_nodes"),
		SharingFactor:    pull("session_shape_sharing"),
		IdentityFraction: pull("session_shape_identity_fraction"),
	}
}

// handleSessionShape serves a live structural profile of one session's
// current diagram. Unlike the trace endpoint this takes the session
// lock: the profile must walk the diagram, and walking a diagram that
// a concurrent step is rewriting is not an option.
func (s *Server) handleSessionShape(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	now := time.Now()
	for _, kind := range s.kinds() {
		h, err := kind.acquire(r, id, now)
		if errors.Is(err, errSessionUnknown) {
			continue // perhaps a session of the next kind
		}
		if err != nil {
			s.sessionErr(w, r, err)
			return
		}
		defer h.release()
		s.writeJSON(w, r, http.StatusOK, shapeResponse{
			ID:       id,
			Kind:     kind.label(),
			Interval: h.val.ddPkg().ShapeInterval(),
			Profile:  h.val.publishShape(),
			Timeline: s.shapeTimelineFor(id, now),
		})
		return
	}
	s.sessionErr(w, r, errSessionUnknown)
}

// shapeBundleEntry is one session's slice of shape_timeline.json.
type shapeBundleEntry struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Profile is the session's last published profile (nil when the
	// session never crossed the sampling stride).
	Profile  *dd.ShapeProfile `json:"profile,omitempty"`
	Timeline *shapeTimeline   `json:"timeline,omitempty"`
}

// shapeTimelineSnapshot collects every live session's structural state
// for the debug bundle. Busy sessions are read race-cleanly via the
// published snapshot; idle ones (lock held, fresh=true) that have
// never crossed the stride get a forced profile so young sessions are
// not invisible in bundles.
func (s *Server) shapeTimelineSnapshot(now time.Time) []shapeBundleEntry {
	entries := []shapeBundleEntry{}
	s.forEachSession(func(k int, id string, sess session, fresh bool) {
		p := sess.ddPkg()
		if fresh && p.ShapeInterval() > 0 && p.LastShape() == nil {
			sess.publishShape()
		}
		entries = append(entries, shapeBundleEntry{
			ID: id, Kind: kindLabels[k],
			Profile:  p.LastShape(),
			Timeline: s.shapeTimelineFor(id, now),
		})
	})
	return entries
}
