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
//
// Sessions are profiled when read, not while they step: every reader
// (the scrape, the telemetry tick, the top endpoint, the bundle and
// this endpoint) takes its profile from shapeOf, which walks an idle
// session only when it has served a request since its last profile.

import (
	"errors"
	"net/http"
	"time"

	"quantumdd/internal/dd"
)

// shapeOf returns the profile a reader shows for sess. fresh is as in
// registry.forEach: the caller holds the session lock. A locked session
// is profiled when it has served a request since its last profile or
// has none yet, so a fleet of idle sessions costs no walks per tick. A
// busy session shows its last published profile, nil if it has none.
func shapeOf(sess session, fresh bool) *dd.ShapeProfile {
	p := sess.ddPkg()
	if !fresh {
		return p.LastShape()
	}
	b := sess.base()
	n := b.acct.requests.Load()
	if sp := p.LastShape(); sp != nil && n == b.shapedAt {
		return sp
	}
	sess.publishShape()
	b.shapedAt = n
	return p.LastShape()
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
	ID       string           `json:"id"`
	Kind     string           `json:"kind"` // "sim" or "verify"
	Profile  *dd.ShapeProfile `json:"profile"`
	Timeline *shapeTimeline   `json:"timeline,omitempty"`
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
			Profile:  shapeOf(h.val, true),
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
	// Profile is the session's profile from shapeOf (nil when the
	// session has been busy since it was created).
	Profile  *dd.ShapeProfile `json:"profile,omitempty"`
	Timeline *shapeTimeline   `json:"timeline,omitempty"`
}

// shapeTimelineSnapshot collects every live session's structural state
// for the debug bundle.
func (s *Server) shapeTimelineSnapshot(now time.Time) []shapeBundleEntry {
	entries := []shapeBundleEntry{}
	s.forEachSession(func(k int, id string, sess session, fresh bool) {
		entries = append(entries, shapeBundleEntry{
			ID: id, Kind: kindLabels[k],
			Profile:  shapeOf(sess, fresh),
			Timeline: s.shapeTimelineFor(id, now),
		})
	})
	return entries
}
