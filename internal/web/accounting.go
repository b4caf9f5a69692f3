package web

// Per-session resource accounting.
//
// Every session carries a sessionAccount: cheap atomic meters fed by
// the same engine observer that drives the shared latency histograms,
// plus a request counter bumped at the acquire choke point. The
// account answers "which session is eating the box" — GET
// /debug/sessions/top ranks live sessions by cumulative DD work, the
// same ranking rides in debug bundles (sessions/top.json) and the live
// telemetry frames.
//
// Node and table counters are NOT duplicated here: they come from the
// engine's atomically published Stats snapshot (dd.Pkg.LastStats), so
// the accounting reads are race-clean against a session mid-step.

import (
	"errors"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"quantumdd/internal/dd"
)

var errBadTopN = errors.New("web: n must be a positive integer")

// sessionAccount meters one session's cumulative resource usage. All
// fields are atomics; the observer side runs on the session goroutine,
// the read side (top endpoint, telemetry tick) on any other.
type sessionAccount struct {
	created  time.Time
	requests atomic.Uint64
	ddOps    atomic.Uint64
	ddNanos  atomic.Int64
}

func newSessionAccount() *sessionAccount {
	return &sessionAccount{created: time.Now()}
}

// touch counts one request served by the session. Nil-safe so
// hand-constructed test sessions without an account never panic.
func (a *sessionAccount) touch() {
	if a != nil {
		a.requests.Add(1)
	}
}

// ObserveOp is the accounting leg of the session observer: every
// top-level DD operation adds to the op and wall-time meters.
func (a *sessionAccount) ObserveOp(op dd.Op, d time.Duration) {
	a.ddOps.Add(1)
	a.ddNanos.Add(int64(d))
}

// sessionUsage is one session's accounting snapshot — the top-endpoint
// row, the bundle member entry, and the live-frame "top" element.
type sessionUsage struct {
	ID         string  `json:"id"`
	Kind       string  `json:"kind"` // "sim" or "verify"
	Requests   uint64  `json:"requests"`
	DDOps      uint64  `json:"ddOps"`
	DDSeconds  float64 `json:"ddSeconds"`
	AgeSeconds float64 `json:"ageSeconds"`
	// Engine-side meters from the last published stats snapshot.
	LiveNodes      int    `json:"liveNodes"`
	NodesCreated   uint64 `json:"nodesCreated"`
	ApplyCTLookups uint64 `json:"applyCtLookups"`
	ApplyCTHits    uint64 `json:"applyCtHits"`
	GCRuns         uint64 `json:"gcRuns"`
	// Matrix-apply kernel meters (verify sessions): the identity-
	// skipping kernel applies every gate, SWAP as three CNOTs.
	ApplyMCTHits uint64 `json:"applyMCtHits"`
	KernelOps    uint64 `json:"kernelOps"`
	// Structural meters from the session's profile (see shapeOf); all
	// zero while the session has never been profiled.
	ShapeSeq              uint64  `json:"shapeSeq,omitempty"`
	ShapeNodes            int     `json:"shapeNodes,omitempty"`
	ShapeMaxLevelNodes    int     `json:"shapeMaxLevelNodes,omitempty"`
	ShapeSharing          float64 `json:"shapeSharing,omitempty"`
	ShapeIdentityFraction float64 `json:"shapeIdentityFraction,omitempty"`
}

func usageFrom(id, kind string, acct *sessionAccount, st dd.Stats, shape *dd.ShapeProfile, now time.Time) sessionUsage {
	u := sessionUsage{
		ID:             id,
		Kind:           kind,
		LiveNodes:      st.LiveNodes,
		NodesCreated:   st.NodesCreatedV + st.NodesCreatedM,
		ApplyCTLookups: st.ApplyCTLookups,
		ApplyCTHits:    st.ApplyCTHits,
		GCRuns:         st.GCRuns,
		ApplyMCTHits:   st.ApplyMCTHits,
		KernelOps:      st.ApplyMOps,
	}
	if acct != nil {
		u.Requests = acct.requests.Load()
		u.DDOps = acct.ddOps.Load()
		u.DDSeconds = float64(acct.ddNanos.Load()) / 1e9
		u.AgeSeconds = now.Sub(acct.created).Seconds()
	}
	if shape != nil {
		u.ShapeSeq = shape.Seq
		u.ShapeNodes = shape.Nodes
		u.ShapeMaxLevelNodes = shape.MaxLevelNodes
		u.ShapeSharing = shape.SharingFactor
		u.ShapeIdentityFraction = shape.IdentityFraction
	}
	return u
}

// sessionUsageSnapshot collects every live session's accounting row,
// heaviest DD consumers first. Idle sessions are visited fresh (forced
// stats publish, shape from shapeOf); busy ones fall back to the
// race-clean LastStats and LastShape reads — the scrape never waits on
// a fast-forward.
func (s *Server) sessionUsageSnapshot() []sessionUsage {
	now := time.Now()
	var out []sessionUsage
	s.forEachSession(func(k int, id string, sess session, fresh bool) {
		p := sess.ddPkg()
		if fresh {
			p.PublishStats()
		}
		st, _ := p.LastStats()
		out = append(out, usageFrom(id, kindLabels[k], sess.base().acct, st, shapeOf(sess, fresh), now))
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].DDOps != out[j].DDOps {
			return out[i].DDOps > out[j].DDOps
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// topResponse is the GET /debug/sessions/top payload.
type topResponse struct {
	Sessions []sessionUsage `json:"sessions"`
	Total    int            `json:"total"` // live sessions before truncation
}

const (
	defaultTopN = 10
	maxTopN     = 100
)

// handleSessionsTop serves the per-session resource ranking. ?n=
// bounds the list (default 10, max 100).
func (s *Server) handleSessionsTop(w http.ResponseWriter, r *http.Request) {
	n := defaultTopN
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			s.writeErr(w, r, http.StatusBadRequest, codeBadRequest,
				errBadTopN)
			return
		}
		n = parsed
		if n > maxTopN {
			n = maxTopN
		}
	}
	usage := s.sessionUsageSnapshot()
	resp := topResponse{Sessions: usage, Total: len(usage)}
	if len(resp.Sessions) > n {
		resp.Sessions = resp.Sessions[:n]
	}
	if resp.Sessions == nil {
		resp.Sessions = []sessionUsage{}
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}
