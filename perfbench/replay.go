package main

// Traced replay. The request log of an untraced closed-loop phase is
// re-executed by calling each layer's public functions directly, in
// the order the handlers call them, with a span around every layer
// call: request (root), qasm.parse, sim.new, sim.step, sim.back,
// sim.noisy, verify.new, verify.apply, verify.identity,
// verify.functionality, vis.graph, vis.svg, vis.export,
// dd.frame_stats and web.encode. Spans carry the request id and their
// parent and stay in memory until the run ends. The replay mirrors the
// handlers' logic (dialog protocol, fast-forward loops, the
// verification tab's undo history) so it performs the same work; each
// replayed frame's node count is checked against the logged response.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"time"

	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
	"quantumdd/internal/vis"
	"quantumdd/internal/web"
)

// shapeInterval mirrors the server's default shape-profiling stride,
// which it installs on every session package.
const shapeInterval = 32

type span struct {
	name       string
	parent     int // index of the enclosing span, -1 for a request root
	req        int // id shared by the spans of one request
	start, end int64
}

// tracer records nested spans of one goroutine. Off, begin and end
// are a single branch each.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	stack []int
	req   int
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, req: t.req, start: int64(time.Since(t.epoch))})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

type rSim struct {
	s      *sim.Simulator
	forced *int
	last   dd.Stats
}

type vSnap struct {
	x      dd.MEdge
	li, ri int
}

type rVerify struct {
	p           *dd.Pkg
	left, right *qc.Circuit
	x           dd.MEdge
	li, ri      int
	peak        int
	history     []vSnap
	last        dd.Stats
}

type replayer struct {
	t        tracer
	cfg      web.Config
	pass     int
	sims     map[string]*rSim
	verifies map[string]*rVerify

	stats        dd.Stats // counter deltas summed over every replayed package
	peakLive     int
	frames       int
	svgBytes     int64
	frameAlloc   uint64
	gates        int // verification gate applications
	trajectories int
	mismatches   int
	firstErr     error
	allocs       allocMeter
}

func newReplayer(cfg web.Config, on bool) *replayer {
	return &replayer{
		t:      tracer{on: on, epoch: time.Now()},
		cfg:    cfg,
		allocs: newAllocMeter(),
	}
}

func (r *replayer) mismatch(err error) {
	r.mismatches++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// run replays the log and returns its wall time.
func (r *replayer) run(log []request) time.Duration {
	t0 := time.Now()
	for i := range log {
		req := &log[i]
		if req.Pass != r.pass || r.sims == nil {
			// Walks never span passes: drop the previous pass's sessions.
			r.pass = req.Pass
			r.sims = map[string]*rSim{}
			r.verifies = map[string]*rVerify{}
		}
		r.t.req = i + 1
		root := r.t.begin("request:" + req.Kind)
		if err := r.exec(req); err != nil {
			r.mismatch(fmt.Errorf("%s %s: %w", req.Method, req.Path, err))
		}
		r.t.end(root)
	}
	return time.Since(t0)
}

func (r *replayer) exec(req *request) error {
	style, err := styleOf(req.Path)
	if err != nil {
		return err
	}
	w := req.Walk
	switch req.Kind {
	case kSimCreate:
		return r.simCreate(req, style)
	case kSimStep, kSimChoose, kSimGet, kSimExport:
		s := r.sims[req.Session]
		if s == nil {
			return fmt.Errorf("unknown session %q", req.Session)
		}
		defer r.account(s.s.Pkg(), &s.last)
		switch req.Kind {
		case kSimStep:
			return r.simStep(req, s, style)
		case kSimChoose:
			if s.pending() == nil {
				return errors.New("no dialog awaiting a choice")
			}
			out := req.Outcome
			s.forced = &out
			ev, err := r.stepForward(s)
			if err != nil {
				return err
			}
			caption := describe(ev)
			return r.encodeFrame(req, stepResponse{Frame: r.simFrame(s, style, caption), Event: caption,
				AtEnd: s.s.AtEnd(), AtStart: s.s.AtStart()})
		case kSimGet:
			return r.encodeFrame(req, stepResponse{Frame: r.simFrame(s, style, ""), Pending: s.pending(),
				AtEnd: s.s.AtEnd(), AtStart: s.s.AtStart()})
		default:
			i := r.t.begin("vis.graph")
			g := vis.FromVector(s.s.State())
			r.t.end(i)
			i = r.t.begin("vis.export")
			if req.Action == "dot" {
				_ = g.DOT(style)
			} else {
				_ = g.SVG(style)
			}
			r.t.end(i)
			return nil
		}
	case kNoisy:
		circ, err := r.parse(w.Code)
		if err != nil {
			return err
		}
		model := sim.NoiseModel{Depolarizing: w.Depolarizing, BitFlip: w.BitFlip}
		i := r.t.begin("sim.noisy")
		res, err := sim.RunNoisyCtx(context.Background(), circ, model, w.Trajectories, r.cfg.Seed,
			sim.WithMaxNodes(r.cfg.MaxNodes), sim.WithWorkers(r.cfg.NoisyWorkers))
		r.t.end(i)
		if err != nil {
			return err
		}
		r.trajectories += res.Trajectories
		resp := noisyResponse{Trajectories: res.Trajectories, Requested: res.Requested, Failed: res.Failed,
			Workers: res.Workers, ErrorEvents: res.ErrorEvents, MeanNodes: res.MeanNodes, Counts: map[string]int{}}
		for idx, n := range res.Counts {
			resp.Counts[fmt.Sprintf("%0*b", circ.NQubits, idx)] = n
		}
		r.encode(resp)
		return nil
	case kFunc:
		return r.functionality(req, style)
	case kVerifyCreate:
		return r.verifyCreate(req, style)
	case kVerifyStep:
		v := r.verifies[req.Session]
		if v == nil {
			return fmt.Errorf("unknown session %q", req.Session)
		}
		defer r.account(v.p, &v.last)
		return r.verifyStep(req, v, style)
	}
	return fmt.Errorf("unknown request kind %q", req.Kind)
}

// styleOf maps the style query parameters onto a vis.Style the way the
// server does.
func styleOf(path string) (vis.Style, error) {
	u, err := url.Parse(path)
	if err != nil {
		return vis.Style{}, err
	}
	q := u.Query()
	st := vis.Style{Mode: vis.Classic}
	switch q.Get("style") {
	case "colored":
		st.Mode = vis.Colored
	case "modern":
		st.Mode = vis.Modern
	}
	switch q.Get("labels") {
	case "1", "true", "on":
		yes := true
		st.ShowEdgeLabels = &yes
	case "0", "false", "off":
		no := false
		st.ShowEdgeLabels = &no
	}
	return st, nil
}

// account adds a package's counter deltas since the last call to the
// run totals and tracks the peak live node count.
func (r *replayer) account(p *dd.Pkg, last *dd.Stats) {
	st := p.Stats()
	r.stats = r.stats.Add(st.Delta(*last))
	*last = st
	if st.LiveNodes > r.peakLive {
		r.peakLive = st.LiveNodes
	}
}

func (r *replayer) parse(code string) (*qc.Circuit, error) {
	i := r.t.begin("qasm.parse")
	c, err := web.ParseCircuit(code, "")
	r.t.end(i)
	return c, err
}

// encode serializes a response body as the server's writeJSON does.
func (r *replayer) encode(v any) {
	i := r.t.begin("web.encode")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the payload types always encode
	r.t.end(i)
}

// encodeFrame encodes a response and checks its frame against the
// logged answer.
func (r *replayer) encodeFrame(req *request, resp stepResponse) error {
	r.encode(resp)
	return checkNodes(req, resp.Frame.Nodes)
}

func checkNodes(req *request, nodes int) error {
	if req.Nodes >= 0 && nodes != req.Nodes {
		return fmt.Errorf("replayed frame has %d nodes, the server's %d", nodes, req.Nodes)
	}
	return nil
}

// render builds and renders a frame's diagram, timing the two vis
// layers separately and metering the heap they allocate.
func (r *replayer) render(g func() *vis.Graph, style vis.Style, caption string) string {
	a0 := r.allocs.read()
	i := r.t.begin("vis.graph")
	graph := g()
	r.t.end(i)
	i = r.t.begin("vis.svg")
	svg := vis.FrameSVG(graph, style, caption)
	r.t.end(i)
	r.frameAlloc += r.allocs.read() - a0
	r.frames++
	r.svgBytes += int64(len(svg))
	return svg
}

func engineStats(p *dd.Pkg) *web.EngineStats {
	st := p.Stats()
	return &web.EngineStats{
		LiveNodes: p.LiveNodes(), UniqueLoadV: st.UniqueLoadV, UniqueLoadM: st.UniqueLoadM,
		UTCollisions: st.UTCollisions, CTStores: st.CTStores, CTEvictions: st.CTEvictions,
		Recycled: st.NodesRecycledV + st.NodesRecycledM, FreeNodes: st.FreeNodesV + st.FreeNodesM, GCRuns: st.GCRuns,
		ApplyLookups: st.ApplyCTLookups, ApplyHits: st.ApplyCTHits, ApplyEvictions: st.ApplyCTEvictions,
		GatesFused: st.GatesFused, GateDDCacheHits: st.GateDDCacheHits,
		ApplyMLookups: st.ApplyMCTLookups, ApplyMHits: st.ApplyMCTHits, ApplyMEvictions: st.ApplyMCTEvictions,
		ApplyMIdentitySkips: st.ApplyMIdentitySkips, KernelOps: st.ApplyMOps, GenericOps: st.MultMMOps,
	}
}

// --- simulation tab ---

type stepResponse struct {
	Frame   web.Frame          `json:"frame"`
	Event   string             `json:"event,omitempty"`
	Error   string             `json:"error,omitempty"`
	Pending *web.PendingChoice `json:"pending,omitempty"`
	AtEnd   bool               `json:"atEnd"`
	AtStart bool               `json:"atStart"`
}

type noisyResponse struct {
	Trajectories int            `json:"trajectories"`
	Requested    int            `json:"requested"`
	Failed       int            `json:"failed,omitempty"`
	Workers      int            `json:"workers"`
	Partial      bool           `json:"partial,omitempty"`
	Error        string         `json:"error,omitempty"`
	ErrorEvents  int            `json:"errorEvents"`
	MeanNodes    float64        `json:"meanNodes"`
	Counts       map[string]int `json:"counts"`
}

func (s *rSim) choose(op *qc.Op, q int, p0, p1 float64) int {
	if s.forced == nil {
		return 0
	}
	out := *s.forced
	s.forced = nil
	return out
}

// pending mirrors the dialog protocol: the next op measures or resets
// a qubit in superposition and no answer is registered.
func (s *rSim) pending() *web.PendingChoice {
	if s.forced != nil || s.s.AtEnd() {
		return nil
	}
	op := &s.s.Circuit().Ops[s.s.Pos()]
	if op.Kind != qc.KindMeasure && op.Kind != qc.KindReset {
		return nil
	}
	q := op.Targets[0]
	p1 := s.s.ProbOne(q)
	if p1 <= 1e-12 || 1-p1 <= 1e-12 {
		return nil
	}
	kind := "measure"
	if op.Kind == qc.KindReset {
		kind = "reset"
	}
	return &web.PendingChoice{OpIndex: s.s.Pos(), Kind: kind, Qubit: q, P0: 1 - p1, P1: p1}
}

func (r *replayer) simCreate(req *request, style vis.Style) error {
	circ, err := r.parse(req.Walk.Code)
	if err != nil {
		return err
	}
	i := r.t.begin("sim.new")
	s := &rSim{}
	s.s = sim.New(circ, sim.WithSeed(r.cfg.Seed), sim.WithMaxNodes(r.cfg.MaxNodes),
		sim.WithChooser(s.choose), sim.WithShapeInterval(shapeInterval))
	r.t.end(i)
	r.sims[req.Session] = s
	frame := r.simFrame(s, style, "initial state |0…0⟩")
	r.encode(map[string]any{"id": req.Session, "frame": frame})
	r.account(s.s.Pkg(), &s.last)
	return checkNodes(req, frame.Nodes)
}

func (r *replayer) stepForward(s *rSim) (sim.Event, error) {
	i := r.t.begin("sim.step")
	ev, err := s.s.StepForwardCtx(context.Background())
	r.t.end(i)
	return ev, err
}

func (r *replayer) simStep(req *request, s *rSim, style vis.Style) error {
	caption := ""
	switch req.Action {
	case "forward":
		if p := s.pending(); p != nil {
			return r.encodeFrame(req, stepResponse{Frame: r.simFrame(s, style, "awaiting dialog choice"), Pending: p})
		}
		ev, err := r.stepForward(s)
		if err != nil {
			return err
		}
		caption = describe(ev)
	case "backward":
		s.forced = nil
		i := r.t.begin("sim.back")
		s.s.StepBackward()
		r.t.end(i)
		caption = "stepped backward"
	case "break", "end":
		for !s.s.AtEnd() {
			if p := s.pending(); p != nil {
				return r.encodeFrame(req, stepResponse{Frame: r.simFrame(s, style, "awaiting dialog choice"), Pending: p})
			}
			ev, err := r.stepForward(s)
			if err != nil {
				return err
			}
			caption = describe(ev)
			if req.Action == "break" && ev.Op != nil && ev.Op.IsSpecial() {
				break
			}
		}
	default:
		return fmt.Errorf("unknown action %q", req.Action)
	}
	return r.encodeFrame(req, stepResponse{Frame: r.simFrame(s, style, caption), Event: caption,
		AtEnd: s.s.AtEnd(), AtStart: s.s.AtStart()})
}

// describe mirrors the server's event captions.
func describe(ev sim.Event) string {
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

func (r *replayer) simFrame(s *rSim, style vis.Style, caption string) web.Frame {
	state := s.s.State()
	svg := r.render(func() *vis.Graph { return vis.FromVector(state) }, style, caption)
	i := r.t.begin("dd.frame_stats")
	p := s.s.Pkg()
	f := web.Frame{
		SVG: svg, Nodes: dd.SizeV(state), Caption: caption, Pos: s.s.Pos(), Total: len(s.s.Circuit().Ops),
		Classical: s.s.Classical(), Probs: p.Probabilities(state), PathCount: dd.PathCount(state),
		PeakNodes: s.s.PeakNodes(), LevelHist: p.SizeByLevelV(state), Engine: engineStats(p),
	}
	r.t.end(i)
	return f
}

// --- verification tab ---

type verifyStepResponse struct {
	Frame    web.Frame `json:"frame"`
	Applied  string    `json:"applied,omitempty"`
	Error    string    `json:"error,omitempty"`
	Identity string    `json:"identity"`
	LeftPos  int       `json:"leftPos"`
	RightPos int       `json:"rightPos"`
}

func (r *replayer) functionality(req *request, style vis.Style) error {
	w := req.Walk
	circ, err := r.parse(w.Code)
	if err != nil {
		return err
	}
	i := r.t.begin("verify.functionality")
	use := circ
	if w.Inverse {
		use, err = circ.Inverse()
	}
	var u dd.MEdge
	p := dd.New(use.NQubits)
	p.SetMaxNodes(r.cfg.MaxNodes)
	if err == nil {
		u, _, err = verify.BuildFunctionality(p, use)
	}
	r.t.end(i)
	if err != nil {
		return err
	}
	caption := "functionality of " + circ.Name
	if w.Inverse {
		caption = "inverse " + caption
	}
	svg := r.render(func() *vis.Graph { return vis.FromMatrix(u) }, style, caption)
	i = r.t.begin("dd.frame_stats")
	frame := web.Frame{SVG: svg, Nodes: dd.SizeM(u), Caption: caption, Pos: use.NumGates(), Total: use.NumGates()}
	r.t.end(i)
	r.encode(map[string]any{"frame": frame})
	var zero dd.Stats
	r.account(p, &zero)
	return checkNodes(req, frame.Nodes)
}

func (r *replayer) verifyCreate(req *request, style vis.Style) error {
	w := req.Walk
	left, err := r.parse(w.Code)
	if err != nil {
		return err
	}
	right, err := r.parse(w.Right)
	if err != nil {
		return err
	}
	i := r.t.begin("verify.new")
	p := dd.New(left.NQubits)
	p.SetMaxNodes(r.cfg.MaxNodes)
	p.SetShapeInterval(shapeInterval)
	v := &rVerify{p: p, left: left, right: right, x: p.Ident()}
	p.IncRefM(v.x)
	v.peak = dd.SizeM(v.x)
	r.t.end(i)
	r.verifies[req.Session] = v
	frame := r.verifyFrame(v, style, "identity")
	r.encode(map[string]any{"id": req.Session, "frame": frame})
	r.account(p, &v.last)
	return checkNodes(req, frame.Nodes)
}

func (r *replayer) verifyStep(req *request, v *rVerify, style vis.Style) error {
	applied := ""
	switch req.Action {
	case "forward":
		gate, err := r.stepSide(v, req.Side)
		if err != nil {
			return err
		}
		applied = gate
	case "barrier":
		n, err := r.runToBarrier(v, req.Side)
		if err != nil {
			return err
		}
		applied = fmt.Sprintf("%d gate(s)", n)
	case "backward":
		if len(v.history) > 0 {
			snap := v.history[len(v.history)-1]
			v.history = v.history[:len(v.history)-1]
			v.p.DecRefM(v.x)
			v.x = snap.x
			v.li, v.ri = snap.li, snap.ri
			applied = "undone"
		}
	default:
		return fmt.Errorf("unknown action %q", req.Action)
	}
	frame := r.verifyFrame(v, style, applied)
	i := r.t.begin("verify.identity")
	identity := "not-identity"
	switch v.p.CheckIdentity(v.x) {
	case dd.IdentityExact:
		identity = "identity"
	case dd.IdentityUpToPhase:
		identity = "identity-up-to-phase"
	}
	r.t.end(i)
	r.encode(verifyStepResponse{Frame: frame, Applied: applied, Identity: identity, LeftPos: v.li, RightPos: v.ri})
	return checkNodes(req, frame.Nodes)
}

func (v *rVerify) side(side string) (*qc.Circuit, *int, error) {
	switch side {
	case "left":
		return v.left, &v.li, nil
	case "right":
		return v.right, &v.ri, nil
	}
	return nil, nil, fmt.Errorf("unknown side %q", side)
}

// applyOp mirrors the verification tab: G's gates from the left, G′'s
// inverted gates from the right, SWAP through its gate diagram and the
// generic checked multiply.
func (v *rVerify) applyOp(op *qc.Op, side string) (dd.MEdge, error) {
	ctl := make([]dd.Control, len(op.Controls))
	for i, c := range op.Controls {
		ctl[i] = dd.Control{Qubit: c.Qubit, Neg: c.Neg}
	}
	if op.Gate == qc.Swap {
		swap := v.p.MakeSwapDD(op.Targets[0], op.Targets[1], ctl...)
		if side == "left" {
			return v.p.MultMMChecked(swap, v.x)
		}
		return v.p.MultMMChecked(v.x, swap)
	}
	if side == "left" {
		return v.p.ApplyGateMLChecked(v.x, dd.GateMatrix(qc.Matrix2(op.Gate, op.Params)), op.Targets[0], ctl...)
	}
	g, params := qc.InverseGate(op.Gate, op.Params)
	return v.p.ApplyGateMRChecked(v.x, dd.GateMatrix(qc.Matrix2(g, params)), op.Targets[0], ctl...)
}

func (r *replayer) stepSide(v *rVerify, side string) (string, error) {
	circ, pos, err := v.side(side)
	if err != nil {
		return "", err
	}
	for *pos < len(circ.Ops) && circ.Ops[*pos].Kind == qc.KindBarrier {
		*pos++
	}
	if *pos >= len(circ.Ops) {
		return "", nil
	}
	op := &circ.Ops[*pos]
	i := r.t.begin("verify.apply")
	next, err := v.applyOp(op, side)
	if err == nil {
		if n := dd.SizeM(next); n > v.peak {
			v.peak = n
		}
		v.history = append(v.history, vSnap{x: v.x, li: v.li, ri: v.ri})
		v.p.IncRefM(v.x)
		v.p.IncRefM(next)
		v.p.DecRefM(v.x)
		v.x = next
		v.p.MaybeShapeM(v.x)
	}
	r.t.end(i)
	if err != nil {
		return "", err
	}
	r.gates++
	*pos++
	return op.String(), nil
}

func (r *replayer) runToBarrier(v *rVerify, side string) (int, error) {
	circ, pos, err := v.side(side)
	if err != nil {
		return 0, err
	}
	applied := 0
	for *pos < len(circ.Ops) {
		if circ.Ops[*pos].Kind == qc.KindBarrier {
			if applied > 0 {
				return applied, nil
			}
			*pos++
			continue
		}
		if _, err := r.stepSide(v, side); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}

func (r *replayer) verifyFrame(v *rVerify, style vis.Style, caption string) web.Frame {
	x := v.x
	svg := r.render(func() *vis.Graph { return vis.FromMatrix(x) }, style, caption)
	i := r.t.begin("dd.frame_stats")
	f := web.Frame{
		SVG: svg, Nodes: dd.SizeM(x), Caption: caption,
		Pos:       gatesBefore(v.left, v.li) + gatesBefore(v.right, v.ri),
		Total:     v.left.NumGates() + v.right.NumGates(),
		PeakNodes: v.peak, LevelHist: v.p.SizeByLevelM(x), Engine: engineStats(v.p),
	}
	r.t.end(i)
	return f
}

func gatesBefore(c *qc.Circuit, pos int) int {
	n := 0
	for i := 0; i < pos && i < len(c.Ops); i++ {
		if c.Ops[i].Kind == qc.KindGate {
			n++
		}
	}
	return n
}
