package web

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/obs/trace"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
	"quantumdd/internal/vis"
)

// Handler returns the tool's HTTP handler: the embedded page at "/",
// the color-wheel legend, and the JSON API under /api/, all wrapped in
// the hardening middleware (request IDs, body caps, deadlines, panic
// recovery, access logging).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, indexHTML)
	})
	mux.HandleFunc("GET /colorwheel.svg", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "image/svg+xml")
		fmt.Fprint(w, vis.ColorWheelSVG(160))
	})
	mux.Handle("GET /metrics", s.MetricsHandler())
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /api/examples", s.handleExamples)
	mux.HandleFunc("POST /api/simulation", s.handleNewSimulation)
	mux.HandleFunc("POST /api/simulation/{id}/step", s.handleSimStep)
	mux.HandleFunc("POST /api/simulation/{id}/choose", s.handleSimChoose)
	mux.HandleFunc("GET /api/simulation/{id}", s.handleSimGet)
	mux.HandleFunc("GET /api/simulation/{id}/export", s.handleSimExport)
	mux.HandleFunc("POST /api/verification", s.handleNewVerification)
	mux.HandleFunc("POST /api/verification/{id}/step", s.handleVerifyStep)
	mux.HandleFunc("GET /api/verification/{id}", s.handleVerifyGet)
	mux.HandleFunc("GET /api/verification/{id}/export", s.handleVerifyExport)
	mux.HandleFunc("POST /api/noisy", s.handleNoisy)
	mux.HandleFunc("POST /api/functionality", s.handleFunctionality)
	// The literal route wins over the {id} wildcard in Go 1.22 mux
	// precedence, so "top" is never treated as a session id.
	mux.HandleFunc("GET /debug/sessions/top", s.handleSessionsTop)
	mux.HandleFunc("GET /debug/sessions/{id}/trace", s.handleSessionTrace)
	mux.HandleFunc("GET /debug/sessions/{id}/shape", s.handleSessionShape)
	if s.tele != nil && s.cfg.LiveStream {
		mux.HandleFunc("GET /debug/live", s.handleLive)
	}
	return s.withMiddleware(mux)
}

// ListenAndServe starts the tool on addr with server-side read/write/
// idle timeouts. Production deployments needing graceful shutdown
// should build their own http.Server around Handler (see cmd/ddvis).
func (s *Server) ListenAndServe(addr string) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeoutFor(s.cfg.RequestTimeout),
		IdleTimeout:       2 * time.Minute,
	}
	return hs.ListenAndServe()
}

// writeTimeoutFor leaves headroom over the per-request deadline so the
// deadline (which produces a useful JSON response) fires first.
func writeTimeoutFor(requestTimeout time.Duration) time.Duration {
	if requestTimeout <= 0 {
		return time.Minute
	}
	return requestTimeout + 5*time.Second
}

// query parses the request's query string; nil when it has none.
// Handlers call it once and read every parameter from the result.
func query(r *http.Request) url.Values {
	if r.URL.RawQuery == "" {
		return nil
	}
	return r.URL.Query()
}

func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, status int, code string, err error) {
	s.writeJSON(w, r, status, apiError{Error: err.Error(), Code: code, RequestID: requestID(r)})
}

// Example is an entry of the "Example Algorithms" list.
type Example struct {
	Name string `json:"name"`
	Code string `json:"code"`
}

// Examples returns the built-in algorithm list offered by the tool.
func Examples() []Example {
	circs := exampleCircuits()
	out := make([]Example, 0, len(circs)+1)
	for _, it := range circs {
		out = append(out, Example{Name: it.name, Code: it.circ.QASM()})
	}
	// One RevLib example demonstrates the second input format the
	// algorithm box accepts.
	out = append(out, Example{
		Name: "Toffoli network (.real format)",
		Code: "# RevLib .real input is auto-detected\n.version 1.0\n.numvars 3\n.variables a b c\n.begin\nt1 a\nt2 a b\nt3 a b c\n.end\n",
	})
	return out
}

type namedCircuit struct {
	name string
	circ *qc.Circuit
}

// exampleCircuits are the built-in examples that Examples serves as
// QASM, in the order it lists them.
func exampleCircuits() []namedCircuit {
	return []namedCircuit{
		{"Bell state (Fig. 1(c))", algorithms.Bell()},
		{"Bell state with measurement (Fig. 8)", algorithms.BellMeasured()},
		{"GHZ (4 qubits)", algorithms.GHZ(4)},
		{"W state (4 qubits)", algorithms.WState(4)},
		{"QFT (3 qubits, Fig. 5(a))", algorithms.QFT(3)},
		{"QFT compiled (Fig. 5(b))", algorithms.QFTCompiled(3)},
		{"Grover (3 qubits)", algorithms.Grover(3, 5)},
		{"Bernstein-Vazirani", algorithms.BernsteinVazirani(4, 0b1011)},
		{"Phase estimation", algorithms.QPE(3, 3.0/8.0)},
		{"Teleportation", algorithms.Teleport(1.2, 0.4)},
	}
}

func (s *Server) handleExamples(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, Examples())
}

type newSimRequest struct {
	Code   string `json:"code"`
	Format string `json:"format"`
}

func (s *Server) handleNewSimulation(w http.ResponseWriter, r *http.Request) {
	var req newSimRequest
	if s.decodeJSON(w, r, &req) != nil {
		return
	}
	circ, err := ParseCircuit(req.Code, req.Format)
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	if err := s.admit(circ); err != nil {
		s.writeErr(w, r, http.StatusUnprocessableEntity, codeCircuitTooLarge, err)
		return
	}
	sess := newSimSession(circ, req.Code, req.Format, s.cfg.Seed, s.cfg.MaxNodes)
	s.sims.create(w, r, sess, func(style vis.Style) Frame { return simFrame(sess, style, "initial state |0…0⟩") })
}

type stepRequest struct {
	Action string `json:"action"` // forward | backward | break | end | start
}

type stepResponse struct {
	Frame   Frame          `json:"frame"`
	Event   string         `json:"event,omitempty"`
	Error   string         `json:"error,omitempty"`
	Pending *PendingChoice `json:"pending,omitempty"`
	AtEnd   bool           `json:"atEnd"`
	AtStart bool           `json:"atStart"`
}

// stepErrorCaption renders a step failure as a frame caption, keeping
// resource exhaustion human-readable ("diagram too large").
func stepErrorCaption(err error) string {
	if errors.Is(err, dd.ErrResourceExhausted) {
		return "diagram too large — node budget exceeded"
	}
	return "step failed: " + err.Error()
}

// writeStepError answers a failed or interrupted step with the
// partial-progress frame and the error message, so the client keeps
// its place instead of facing a dead tab.
func (s *Server) writeStepError(w http.ResponseWriter, r *http.Request, sess *simSession, style vis.Style, err error) {
	caption := stepErrorCaption(err)
	s.writeFrame(w, r, &stepResponse{
		Frame:   simFrame(sess, style, caption),
		Event:   caption,
		Error:   err.Error(),
		AtEnd:   sess.sim.AtEnd(),
		AtStart: sess.sim.AtStart(),
	})
}

func (s *Server) handleSimStep(w http.ResponseWriter, r *http.Request) {
	h, err := s.sims.acquire(r, r.PathValue("id"), time.Now())
	if err != nil {
		s.sessionErr(w, r, err)
		return
	}
	defer h.release()
	sess := h.val.(*simSession)
	var req stepRequest
	if s.decodeJSON(w, r, &req) != nil {
		return
	}
	// The request span roots this request's slice of the session
	// timeline; session-op and DD spans nest under it.
	ctx := trace.With(r.Context(), sess.rec)
	ctx, rsp := trace.StartSpan(ctx, "POST /api/simulation/{id}/step")
	defer rsp.End()
	style := styleFrom(query(r))
	caption := ""
	switch req.Action {
	case "forward":
		if pending := sess.pending(); pending != nil {
			s.writeFrame(w, r, &stepResponse{Frame: simFrame(sess, style, "awaiting dialog choice"), Pending: pending})
			return
		}
		ev, err := sess.sim.StepForwardCtx(ctx)
		if err != nil {
			s.writeStepError(w, r, sess, style, err)
			return
		}
		caption = describeEvent(sess, ev)
	case "backward":
		sess.forced = nil
		sess.sim.StepBackward()
		caption = "stepped backward"
	case "start":
		sess.forced = nil
		sess.sim.Rewind()
		caption = "initial state |0…0⟩"
	case "break", "end":
		// Only the last event's caption is sent, so only it is
		// described.
		last, steps, pending, err := sess.fastForward(ctx, req.Action)
		if err != nil {
			s.writeStepError(w, r, sess, style, err)
			return
		}
		if pending != nil {
			s.writeFrame(w, r, &stepResponse{Frame: simFrame(sess, style, "awaiting dialog choice"), Pending: pending})
			return
		}
		if steps > 0 {
			caption = describeEvent(sess, last)
		}
	default:
		s.writeErr(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("web: unknown action %q", req.Action))
		return
	}
	s.writeFrame(w, r, &stepResponse{
		Frame:   simFrame(sess, style, caption),
		Event:   caption,
		AtEnd:   sess.sim.AtEnd(),
		AtStart: sess.sim.AtStart(),
	})
}

func describeEvent(sess *simSession, ev sim.Event) string {
	switch ev.Kind {
	case sim.EventEnd:
		return "end of circuit"
	case sim.EventBarrier:
		return "barrier (breakpoint)"
	case sim.EventMeasure:
		return fmt.Sprintf("measured q[%d] = %d (p0=%.3f, p1=%.3f)", ev.Op.Targets[0], ev.Outcome, ev.P0, ev.P1)
	case sim.EventReset:
		return fmt.Sprintf("reset q[%d] (pre-reset value %d)", ev.Op.Targets[0], ev.Outcome)
	case sim.EventCondSkip:
		return fmt.Sprintf("skipped %s (condition not met)", ev.Op.String())
	case sim.EventCondApply:
		return fmt.Sprintf("applied conditional %s", ev.Op.String())
	default:
		if ev.Op != nil {
			return "applied " + ev.Op.String()
		}
		return ""
	}
}

type chooseRequest struct {
	Outcome int `json:"outcome"`
}

func (s *Server) handleSimChoose(w http.ResponseWriter, r *http.Request) {
	h, err := s.sims.acquire(r, r.PathValue("id"), time.Now())
	if err != nil {
		s.sessionErr(w, r, err)
		return
	}
	defer h.release()
	sess := h.val.(*simSession)
	var req chooseRequest
	if s.decodeJSON(w, r, &req) != nil {
		return
	}
	if err := sess.choose(req.Outcome); err != nil {
		s.writeErr(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	ctx := trace.With(r.Context(), sess.rec)
	ctx, rsp := trace.StartSpan(ctx, "POST /api/simulation/{id}/choose")
	defer rsp.End()
	style := styleFrom(query(r))
	ev, err := sess.sim.StepForwardCtx(ctx)
	if err != nil {
		s.writeStepError(w, r, sess, style, err)
		return
	}
	caption := describeEvent(sess, ev)
	s.writeFrame(w, r, &stepResponse{
		Frame:   simFrame(sess, style, caption),
		Event:   caption,
		AtEnd:   sess.sim.AtEnd(),
		AtStart: sess.sim.AtStart(),
	})
}

func (s *Server) handleSimGet(w http.ResponseWriter, r *http.Request) {
	h, err := s.sims.acquire(r, r.PathValue("id"), time.Now())
	if err != nil {
		s.sessionErr(w, r, err)
		return
	}
	defer h.release()
	sess := h.val.(*simSession)
	style := styleFrom(query(r))
	s.writeFrame(w, r, &stepResponse{
		Frame:   simFrame(sess, style, ""),
		Pending: sess.pending(),
		AtEnd:   sess.sim.AtEnd(),
		AtStart: sess.sim.AtStart(),
	})
}

type noisyRequest struct {
	Code         string  `json:"code"`
	Format       string  `json:"format"`
	Depolarizing float64 `json:"depolarizing"`
	BitFlip      float64 `json:"bitFlip"`
	PhaseFlip    float64 `json:"phaseFlip"`
	Trajectories int     `json:"trajectories"`
}

type noisyResponse struct {
	// Trajectories counts completed trajectories; on a partial result
	// it is smaller than Requested.
	Trajectories int `json:"trajectories"`
	Requested    int `json:"requested"`
	Failed       int `json:"failed,omitempty"`
	// Workers is the replica pool width the ensemble ran on.
	Workers int `json:"workers"`
	// Partial marks a degraded result: some trajectories hit the node
	// budget, and Error carries the cause. The counts cover the
	// completed trajectories only — the partial-progress contract of
	// the stepping frames.
	Partial     bool           `json:"partial,omitempty"`
	Error       string         `json:"error,omitempty"`
	ErrorEvents int            `json:"errorEvents"`
	MeanNodes   float64        `json:"meanNodes"`
	Counts      map[string]int `json:"counts"`
}

// handleNoisy runs a Monte-Carlo trajectory ensemble under Pauli noise
// and returns the aggregated outcome histogram — a batch companion to
// the interactive stepping view. Trajectories fan out over the
// replica pool (Config.NoisyWorkers) under the request context, so a
// disconnected client or an expired deadline stops the remaining
// trajectories instead of burning cores on an unwanted answer.
func (s *Server) handleNoisy(w http.ResponseWriter, r *http.Request) {
	var req noisyRequest
	if s.decodeJSON(w, r, &req) != nil {
		return
	}
	circ, err := ParseCircuit(req.Code, req.Format)
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	if err := s.admit(circ); err != nil {
		s.writeErr(w, r, http.StatusUnprocessableEntity, codeCircuitTooLarge, err)
		return
	}
	if req.Trajectories <= 0 {
		req.Trajectories = 500
	}
	if req.Trajectories > 100000 {
		s.writeErr(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("web: at most 100000 trajectories"))
		return
	}
	model := sim.NoiseModel{Depolarizing: req.Depolarizing, BitFlip: req.BitFlip, PhaseFlip: req.PhaseFlip}
	res, err := sim.RunNoisyCtx(r.Context(), circ, model, req.Trajectories, s.cfg.Seed,
		sim.WithMaxNodes(s.cfg.MaxNodes),
		sim.WithWorkers(s.cfg.NoisyWorkers),
		sim.WithTrajectoryObserver(func(seconds float64) {
			s.metrics.trajectoriesCompleted.Inc()
			s.metrics.trajectorySeconds.Observe(seconds)
		}))
	if res != nil {
		s.metrics.noisyWorkers.Set(float64(res.Workers))
	}
	if err != nil && res == nil {
		s.writeErr(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	resp := noisyResponse{
		Trajectories: res.Trajectories,
		Requested:    res.Requested,
		Failed:       res.Failed,
		Workers:      res.Workers,
		ErrorEvents:  res.ErrorEvents,
		MeanNodes:    res.MeanNodes,
		Counts:       make(map[string]int, len(res.Counts)),
	}
	for idx, n := range res.Counts {
		resp.Counts[fmt.Sprintf("%0*b", circ.NQubits, idx)] = n
	}
	if err != nil {
		// Budget exhaustion (or a cancelled context racing the write):
		// answer with the completed trajectories and the cause instead
		// of discarding the ensemble.
		resp.Partial = true
		resp.Error = err.Error()
		s.reqLogger(r).Warn("noisy ensemble degraded to partial result",
			"completed", res.Trajectories, "requested", res.Requested,
			"failed", res.Failed, "error", err)
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

// handleSimExport serves the current diagram as a standalone artifact
// (format=svg or dot) for download from the tool.
func (s *Server) handleSimExport(w http.ResponseWriter, r *http.Request) {
	h, err := s.sims.acquire(r, r.PathValue("id"), time.Now())
	if err != nil {
		s.sessionErr(w, r, err)
		return
	}
	defer h.release()
	g := vis.FromVector(h.val.(*simSession).sim.State())
	s.writeExport(w, r, g, query(r))
}

func (s *Server) handleVerifyExport(w http.ResponseWriter, r *http.Request) {
	h, err := s.verifies.acquire(r, r.PathValue("id"), time.Now())
	if err != nil {
		s.sessionErr(w, r, err)
		return
	}
	defer h.release()
	g := vis.FromMatrix(h.val.(*verifySession).m.X())
	s.writeExport(w, r, g, query(r))
}

func (s *Server) writeExport(w http.ResponseWriter, r *http.Request, g *vis.Graph, q url.Values) {
	style := styleFrom(q)
	switch format := q.Get("format"); format {
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		io.WriteString(w, g.DOT(style))
	case "", "svg":
		w.Header().Set("Content-Type", "image/svg+xml")
		io.WriteString(w, g.SVG(style))
	default:
		s.writeErr(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("web: unknown export format %q (want svg or dot)", format))
	}
}

type functionalityRequest struct {
	Code    string `json:"code"`
	Format  string `json:"format"`
	Inverse bool   `json:"inverse"`
}

// handleFunctionality implements the Ex. 14 mode of the verification
// tab: with a single circuit loaded, build its (inverse) functionality
// as a matrix diagram and render it.
func (s *Server) handleFunctionality(w http.ResponseWriter, r *http.Request) {
	var req functionalityRequest
	if s.decodeJSON(w, r, &req) != nil {
		return
	}
	circ, err := ParseCircuit(req.Code, req.Format)
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	if err := s.admit(circ); err != nil {
		s.writeErr(w, r, http.StatusUnprocessableEntity, codeCircuitTooLarge, err)
		return
	}
	style := styleFrom(query(r))
	frame, err := buildFunctionalityFrame(circ, req.Inverse, style, s.cfg.MaxNodes)
	if err != nil {
		if errors.Is(err, dd.ErrResourceExhausted) {
			s.writeErr(w, r, http.StatusUnprocessableEntity, codeResourceExhausted, err)
			return
		}
		s.writeErr(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	s.writeFrame(w, r, &frameResponse{Frame: frame})
}

type newVerifyRequest struct {
	Left   string `json:"left"`
	Right  string `json:"right"`
	Format string `json:"format"`
}

func (s *Server) handleNewVerification(w http.ResponseWriter, r *http.Request) {
	var req newVerifyRequest
	if s.decodeJSON(w, r, &req) != nil {
		return
	}
	left, err := ParseCircuit(req.Left, req.Format)
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("left circuit: %w", err))
		return
	}
	right, err := ParseCircuit(req.Right, req.Format)
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("right circuit: %w", err))
		return
	}
	if err := s.admit(left); err != nil {
		s.writeErr(w, r, http.StatusUnprocessableEntity, codeCircuitTooLarge, fmt.Errorf("left circuit: %w", err))
		return
	}
	if err := s.admit(right); err != nil {
		s.writeErr(w, r, http.StatusUnprocessableEntity, codeCircuitTooLarge, fmt.Errorf("right circuit: %w", err))
		return
	}
	sess, err := newVerifySession(left, right, req.Left, req.Right, req.Format, s.cfg.MaxNodes)
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	s.verifies.create(w, r, sess, func(style vis.Style) Frame { return verifyFrame(sess, style, "identity") })
}

type verifyStepRequest struct {
	Side   string `json:"side"`   // left | right
	Action string `json:"action"` // forward | barrier | backward
}

type verifyStepResponse struct {
	Frame    Frame  `json:"frame"`
	Applied  string `json:"applied,omitempty"`
	Error    string `json:"error,omitempty"`
	Identity string `json:"identity"`
	LeftPos  int    `json:"leftPos"`
	RightPos int    `json:"rightPos"`
}

// writeVerifyStepError mirrors writeStepError for the verification
// tab: resource exhaustion keeps the last good diagram on screen with
// a "too large" caption; other errors are client mistakes (400).
func (s *Server) writeVerifyStepError(w http.ResponseWriter, r *http.Request, sess *verifySession, style vis.Style, err error) {
	if !errors.Is(err, dd.ErrResourceExhausted) {
		s.writeErr(w, r, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	resp := verifyResponse(sess, style, stepErrorCaption(err))
	resp.Error = err.Error()
	s.writeFrame(w, r, resp)
}

// verifyResponse carries the session's frame, verdict and positions.
func verifyResponse(sess *verifySession, style vis.Style, caption string) *verifyStepResponse {
	li, ri := sess.m.Pos()
	return &verifyStepResponse{Frame: verifyFrame(sess, style, caption), Identity: sess.identity(), LeftPos: li, RightPos: ri}
}

func (s *Server) handleVerifyStep(w http.ResponseWriter, r *http.Request) {
	h, err := s.verifies.acquire(r, r.PathValue("id"), time.Now())
	if err != nil {
		s.sessionErr(w, r, err)
		return
	}
	defer h.release()
	sess := h.val.(*verifySession)
	var req verifyStepRequest
	if s.decodeJSON(w, r, &req) != nil {
		return
	}
	ctx := trace.With(r.Context(), sess.rec)
	ctx, rsp := trace.StartSpan(ctx, "POST /api/verification/{id}/step")
	defer rsp.End()
	style := styleFrom(query(r))
	applied := ""
	switch req.Action {
	case "forward":
		op, err := sess.stepSide(ctx, req.Side)
		if err != nil {
			s.writeVerifyStepError(w, r, sess, style, err)
			return
		}
		if op != nil {
			applied = op.String()
		}
	case "barrier":
		n, err := sess.runToBarrier(ctx, req.Side)
		if err != nil {
			s.writeVerifyStepError(w, r, sess, style, err)
			return
		}
		applied = fmt.Sprintf("%d gate(s)", n)
	case "backward":
		if sess.stepBack() {
			applied = "undone"
		}
	default:
		s.writeErr(w, r, http.StatusBadRequest, codeBadRequest, fmt.Errorf("web: unknown action %q", req.Action))
		return
	}
	resp := verifyResponse(sess, style, applied)
	resp.Applied = applied
	s.writeFrame(w, r, resp)
}

func (s *Server) handleVerifyGet(w http.ResponseWriter, r *http.Request) {
	h, err := s.verifies.acquire(r, r.PathValue("id"), time.Now())
	if err != nil {
		s.sessionErr(w, r, err)
		return
	}
	defer h.release()
	sess := h.val.(*verifySession)
	style := styleFrom(query(r))
	s.writeFrame(w, r, verifyResponse(sess, style, ""))
}
