package web

// Liveness, readiness, and SLO burn-rate gating.
//
// GET /healthz is pure liveness: the process answers, nothing else is
// implied. GET /readyz is the load-balancer gate: it runs component
// probes (session registries, spill store writability, trajectory
// pool, the telemetry sampler's warmup, plus any probes the embedder
// registers) and checks the SLO burn over the tsdb windows — a p99
// request latency above budget or a 5xx ratio above budget marks the
// replica not-ready so traffic drains before users notice. Every
// answer carries the full probe breakdown as JSON, so "why is it 503"
// is one curl away.

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"quantumdd/internal/sim"
)

// The SLO burn-rate window of /readyz and the watchdog rules, and the
// 5xx ratio and p99 request latency that mark the replica not-ready
// within it.
const (
	sloWindow     = 5 * time.Minute
	sloErrorRatio = 0.5
	sloLatencyP99 = 5 * time.Second
)

// probeStatus is one component's readiness verdict.
type probeStatus struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// sloStatus is the burn-rate section of the readiness payload.
type sloStatus struct {
	WindowSeconds        float64 `json:"windowSeconds"`
	P99Seconds           float64 `json:"p99Seconds"`
	LatencyBudgetSeconds float64 `json:"latencyBudgetSeconds"`
	ErrorRatio           float64 `json:"errorRatio"`
	ErrorBudget          float64 `json:"errorBudget"`
	Burning              bool    `json:"burning"`
	Detail               string  `json:"detail,omitempty"`
}

// readyResponse is the GET /readyz payload, served with 200 when
// ready and 503 when any probe fails or the SLO is burning.
type readyResponse struct {
	Ready  bool          `json:"ready"`
	Probes []probeStatus `json:"probes"`
	SLO    *sloStatus    `json:"slo,omitempty"`
}

// SetReadinessProbe registers (or replaces) a named readiness probe.
// The embedder uses it to gate on components the web server does not
// own — cmd/ddvis registers the admin listener this way. A probe
// returning nil is healthy; an error marks the replica not-ready with
// the error text as detail. Pass nil to remove the probe.
func (s *Server) SetReadinessProbe(name string, probe func() error) {
	s.probeMu.Lock()
	defer s.probeMu.Unlock()
	if s.probes == nil {
		s.probes = make(map[string]func() error)
	}
	if probe == nil {
		delete(s.probes, name)
		return
	}
	s.probes[name] = probe
}

// runProbes evaluates every component probe.
func (s *Server) runProbes() []probeStatus {
	out := []probeStatus{
		{
			Name: "registry",
			OK:   true,
			Detail: fmt.Sprintf("%d sim, %d verify session(s) live",
				s.sims.reg.size(), s.verifies.reg.size()),
		},
	}

	spill := probeStatus{Name: "spill", OK: true, Detail: "disabled"}
	if s.spill != nil {
		if err := s.spill.store.ProbeWritable(); err != nil {
			spill.OK = false
			spill.Detail = err.Error()
		} else {
			spill.Detail = fmt.Sprintf("writable, %d snapshot(s), %d bytes",
				s.spill.store.Len(), s.spill.store.Bytes())
		}
	}
	out = append(out, spill)

	pool := probeStatus{Name: "trajectory_pool", OK: true}
	if w := sim.PoolWidth(s.cfg.NoisyWorkers, 1); w >= 1 {
		pool.Detail = fmt.Sprintf("resolves to %d worker(s)", sim.PoolWidth(s.cfg.NoisyWorkers, 1<<30))
	} else {
		pool.OK = false
		pool.Detail = fmt.Sprintf("pool width resolved to %d", w)
	}
	out = append(out, pool)

	tele := probeStatus{Name: "telemetry", OK: true, Detail: "disabled"}
	if s.tele != nil {
		if n := s.tele.store.Samples(); n == 0 {
			// Warmup gate: a replica is not ready until the first sweep
			// completed, so the SLO math below never judges an empty
			// window and rollouts see readiness flip after one interval.
			tele.OK = false
			tele.Detail = "warming up (no telemetry sample yet)"
		} else {
			tele.Detail = fmt.Sprintf("%d sweep(s), %d series, %d bytes retained",
				n, s.tele.store.SeriesCount(), s.tele.store.RetainedBytes())
		}
	}
	out = append(out, tele)

	s.probeMu.Lock()
	names := make([]string, 0, len(s.probes))
	for name := range s.probes {
		names = append(names, name)
	}
	sort.Strings(names)
	custom := make([]func() error, len(names))
	for i, name := range names {
		custom[i] = s.probes[name]
	}
	s.probeMu.Unlock()
	for i, name := range names {
		p := probeStatus{Name: name, OK: true}
		if err := custom[i](); err != nil {
			p.OK = false
			p.Detail = err.Error()
		}
		out = append(out, p)
	}
	return out
}

// sloBurn evaluates the burn-rate gate over the tsdb window. Without
// telemetry (or before any traffic landed in the window) it reports a
// non-burning status — readiness then rests on the probes alone.
func (s *Server) sloBurn(now time.Time) *sloStatus {
	if s.tele == nil {
		return nil
	}
	win := sloWindow
	st := &sloStatus{
		WindowSeconds:        win.Seconds(),
		LatencyBudgetSeconds: sloLatencyP99.Seconds(),
		ErrorBudget:          sloErrorRatio,
	}
	if p99, ok := s.tele.store.Quantile("http_request_duration_seconds", "", 0.99, win, now); ok {
		st.P99Seconds = p99
		if p99 > st.LatencyBudgetSeconds {
			st.Burning = true
			st.Detail = fmt.Sprintf("p99 request latency %.3fs exceeds %.3fs budget", p99, st.LatencyBudgetSeconds)
		}
	}
	var total, errs float64
	for _, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
		d, ok := s.tele.store.Delta("http_requests_total", `code="`+class+`"`, win, now)
		if !ok {
			continue
		}
		total += d
		if class == "5xx" {
			errs = d
		}
	}
	if total > 0 {
		st.ErrorRatio = errs / total
		if st.ErrorRatio > st.ErrorBudget {
			st.Burning = true
			detail := fmt.Sprintf("5xx ratio %.3f exceeds %.3f budget", st.ErrorRatio, st.ErrorBudget)
			if st.Detail != "" {
				st.Detail += "; " + detail
			} else {
				st.Detail = detail
			}
		}
	}
	return st
}

// handleHealthz is pure liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]interface{}{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.started).Seconds(),
	})
}

// handleReadyz runs the probes and the SLO gate.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := readyResponse{Ready: true, Probes: s.runProbes()}
	for _, p := range resp.Probes {
		if !p.OK {
			resp.Ready = false
		}
	}
	resp.SLO = s.sloBurn(time.Now())
	if resp.SLO != nil && resp.SLO.Burning {
		resp.Ready = false
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, r, status, resp)
}

// ReadyzHandler exposes the readiness endpoint for mounting on an
// admin mux next to /metrics and the debug bundle.
func (s *Server) ReadyzHandler() http.Handler { return http.HandlerFunc(s.handleReadyz) }

// SessionsTopHandler exposes the per-session resource ranking for the
// admin mux.
func (s *Server) SessionsTopHandler() http.Handler { return http.HandlerFunc(s.handleSessionsTop) }
