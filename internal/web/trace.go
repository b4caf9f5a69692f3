package web

// Trace export and one-shot debug bundles.
//
// GET /debug/sessions/{id}/trace streams one session's flight
// recorder as Chrome trace-event JSON — open the download in
// chrome://tracing or https://ui.perfetto.dev. The handler reads the
// recorder through registry.peek, never the per-session lock, so a
// timeline can be pulled from a session that is mid-fast-forward:
// exactly the moment a timeline is wanted.
//
// BundleHandler serves the whole process state as one tar.gz — the
// standard members from obs (metrics, profiles, build info, flags)
// plus every live session's timeline — intended for the admin
// listener, where it turns "can you reproduce it?" into "send me the
// bundle".

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"quantumdd/internal/dd"
	"quantumdd/internal/obs"
	"quantumdd/internal/obs/trace"
)

// fastForward is the one span of a fast-forward in either tab (⏭,
// run-to-end). Its gates step untraced and the span folds their DD
// operations (trace.Span.Fold), so it carries what per-gate spans would
// have said in sum: ops applied, nodes before and after, compute-table
// and apply-table hit deltas, the node budget's abort, and dd_ops and
// dd_us from the fold — trace.MaxAttrs attributes. Zero, and free,
// when tracing is off.
type fastForward struct {
	sp             *trace.Span
	p              *dd.Pkg
	cache0, apply0 uint64
}

// startFastForward opens the span "fast-forward:<what>" over a diagram
// of nodes nodes on p.
func startFastForward(ctx context.Context, what string, p *dd.Pkg, nodes int) fastForward {
	if !trace.Enabled(ctx) {
		return fastForward{}
	}
	_, sp := trace.StartSpan(ctx, "fast-forward:"+what)
	sp.Fold()
	sp.SetAttr("nodes_before", int64(nodes))
	f := fastForward{sp: sp, p: p}
	f.cache0, f.apply0 = p.HitCounts()
	return f
}

// end closes the span after ops gates, at a diagram of nodes nodes;
// err is the error that stopped the run, if any.
func (f fastForward) end(ops, nodes int, err error) {
	if f.sp == nil {
		return
	}
	cache, apply := f.p.HitCounts()
	f.sp.SetAttr("ops", int64(ops))
	f.sp.SetAttr("nodes_after", int64(nodes))
	f.sp.SetAttr("ct_hits", int64(cache-f.cache0))
	f.sp.SetAttr("apply_ct_hits", int64(apply-f.apply0))
	if errors.Is(err, dd.ErrResourceExhausted) {
		f.sp.SetAttr("budget_exhausted", 1)
	}
	f.sp.End()
}

// sessionRecorder finds the flight recorder of a live session of
// either kind. The bool reports whether the session exists.
func (s *Server) sessionRecorder(id string) (*trace.Recorder, bool) {
	for _, kind := range s.kinds() {
		if sess, ok := kind.reg.peek(id); ok {
			return sess.base().rec, true
		}
	}
	return nil, false
}

func (s *Server) handleSessionTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.sessionRecorder(id)
	if !ok {
		s.sessionErr(w, r, errSessionUnknown)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".trace.json"))
	if err := trace.WriteChromeTrace(w, trace.SessionFromRecorder(rec, 1)); err != nil {
		s.reqLogger(r).Error("trace export failed", "sessionId", id, "error", err)
	}
}

// sessionTraces snapshots every live session, each on its own
// process track. Recorder snapshots are cross-goroutine safe, so the
// fresh flag is irrelevant here.
func (s *Server) sessionTraces() []trace.SessionTrace {
	var out []trace.SessionTrace
	s.forEachSession(func(k int, id string, sess session, fresh bool) {
		out = append(out, trace.SessionFromRecorder(sess.base().rec, len(out)+1))
	})
	return out
}

// Bundle CPU-profile window bounds: the ?cpu=<seconds> parameter is
// clamped so a caller can neither skip the profile accidentally with
// a huge value nor hold the handler for minutes.
const (
	defaultBundleCPU = 5 * time.Second
	maxBundleCPU     = 30 * time.Second
)

// BundleHandler returns the one-shot debug-bundle endpoint: a single
// tar.gz with the metrics exposition, goroutine/heap/CPU profiles,
// build info, flag values, and one Chrome trace per live session
// (sessions/<id>.trace.json). ?cpu=<seconds> adjusts the CPU profile
// window (default 5, max 30, 0 omits it). The handler blocks for the
// profiling window; mount it on the admin listener, not the public
// mux.
func (s *Server) BundleHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cpu := defaultBundleCPU
		if v := r.URL.Query().Get("cpu"); v != "" {
			secs, err := strconv.Atoi(v)
			if err != nil || secs < 0 {
				http.Error(w, "cpu must be a non-negative integer (seconds)", http.StatusBadRequest)
				return
			}
			cpu = time.Duration(secs) * time.Second
			if cpu > maxBundleCPU {
				cpu = maxBundleCPU
			}
		}
		// Refresh the session gauges and DD aggregates so metrics.prom
		// inside the bundle matches what a scrape would have seen.
		s.collect()
		members := obs.StandardBundleMembers(s.metrics.registry, cpu)
		// Per-session resource ranking rides in every bundle; the
		// watchdog event log joins when telemetry is enabled.
		members = append(members, obs.BundleMember{
			Name: "sessions/top.json",
			Fill: func(w io.Writer) error {
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				return enc.Encode(s.sessionUsageSnapshot())
			},
		})
		if s.tele != nil {
			members = append(members, obs.BundleMember{
				Name: "watchdog.jsonl",
				Fill: s.tele.dog.WriteJSONL,
			})
			members = append(members, obs.BundleMember{
				Name: "shape_timeline.json",
				Fill: func(w io.Writer) error {
					enc := json.NewEncoder(w)
					enc.SetIndent("", "  ")
					return enc.Encode(s.shapeTimelineSnapshot(time.Now()))
				},
			})
		}
		for _, st := range s.sessionTraces() {
			members = append(members, obs.BundleMember{
				Name: "sessions/" + st.Name + ".trace.json",
				Fill: func(w io.Writer) error { return trace.WriteChromeTrace(w, st) },
			})
		}
		w.Header().Set("Content-Type", "application/gzip")
		w.Header().Set("Content-Disposition", `attachment; filename="debug-bundle.tar.gz"`)
		if err := obs.WriteBundle(w, members); err != nil {
			s.logger.Error("debug bundle write failed", "error", err)
		}
	})
}
