// Package web implements the installation-free visualization tool of
// Sec. IV as an HTTP server: a single embedded page backed by a JSON
// API. The simulation tab steps a circuit forward/backward with
// breakpoints and measurement/reset dialogs; the verification tab
// steps two circuits against each other starting from the identity
// diagram (Fig. 9).
package web

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quantumdd/internal/dd"
	"quantumdd/internal/obs/trace"
	"quantumdd/internal/qasm"
	"quantumdd/internal/qc"
	"quantumdd/internal/realfmt"
	"quantumdd/internal/sim"
	"quantumdd/internal/snapshot"
	"quantumdd/internal/verify"
	"quantumdd/internal/vis"
)

// ParseCircuit loads source code in the given format ("qasm" or
// "real"; empty guesses from the content) — the drag-and-drop entry
// point of the algorithm box.
func ParseCircuit(code, format string) (*qc.Circuit, error) {
	switch format {
	case "", "auto":
		if strings.Contains(code, ".begin") {
			return realfmt.ParseString(code)
		}
		return qasm.Parse(code)
	case "qasm":
		return qasm.Parse(code)
	case "real":
		return realfmt.ParseString(code)
	default:
		return nil, fmt.Errorf("web: unknown format %q (want qasm or real)", format)
	}
}

// PendingChoice describes a measurement/reset waiting for the user's
// dialog decision.
type PendingChoice struct {
	OpIndex int     `json:"opIndex"`
	Kind    string  `json:"kind"` // "measure" or "reset"
	Qubit   int     `json:"qubit"`
	P0      float64 `json:"p0"`
	P1      float64 `json:"p1"`
}

// session is one tab's session as the shared lifecycle (sessionKind)
// sees it: its engine, recorder and account, a hook that profiles its
// current diagram, and its durable form.
type session interface {
	base() *sessionBase
	ddPkg() *dd.Pkg
	publishShape()
	// snapshot serializes the session for spill-to-disk. Called with
	// the per-session lock held (exclusive access), so the reads are
	// consistent. Step and undo history are not persisted: a restored
	// session cannot step backward past the restore point.
	snapshot() []byte
}

// sessionBase is what every session carries for the lifecycle.
type sessionBase struct {
	// rec is the session's flight recorder (nil when tracing is
	// disabled). Assigned once before the session is published to the
	// registry; its Snapshot side is safe from any goroutine.
	rec *trace.Recorder
	// acct meters the session's cumulative resource usage (requests,
	// DD ops, DD wall time). Assigned at construction; all-atomic, so
	// the top endpoint and telemetry tick read it from any goroutine.
	acct *sessionAccount
	// shapedAt is acct's request count at the session's last shape
	// profile (see shapeOf). Guarded by the per-session lock.
	shapedAt uint64
}

func (b *sessionBase) base() *sessionBase { return b }

// simSession wraps a simulator with the dialog protocol: when the next
// operation measures a qubit in superposition, stepping reports a
// PendingChoice instead of advancing; the client resolves it with an
// explicit outcome.
type simSession struct {
	sessionBase
	sim    *sim.Simulator
	forced *int // outcome for the next dialog-requiring op
	// src and format retain the session's original circuit input
	// verbatim. Spill snapshots persist the source text rather than a
	// re-rendering of the parsed circuit, because rendering is lossy
	// (negative controls are conjugated with X pairs, unsupported ops
	// become comments); restore re-parses the exact bytes the user
	// submitted.
	src    string
	format string
	seed   int64
}

const superpositionEps = 1e-12

// chooser returns the dialog-protocol outcome chooser bound to this
// session; shared by the fresh and restored constructors.
func (s *simSession) chooser() sim.OutcomeChooser {
	return func(op *qc.Op, q int, p0, p1 float64) int {
		// The server only steps after a choice is registered, so a
		// missing choice is a protocol violation handled in pending().
		if s.forced == nil {
			return 0
		}
		out := *s.forced
		s.forced = nil
		return out
	}
}

func newSimSession(circ *qc.Circuit, src, format string, seed int64, maxNodes int) *simSession {
	s := &simSession{sessionBase: sessionBase{acct: newSessionAccount()}, src: src, format: format, seed: seed}
	s.sim = sim.New(circ, sim.WithSeed(seed), sim.WithMaxNodes(maxNodes), sim.WithChooser(s.chooser()))
	return s
}

func (s *simSession) ddPkg() *dd.Pkg { return s.sim.Pkg() }

func (s *simSession) publishShape() { s.sim.Pkg().PublishShapeV(s.sim.State()) }

func (s *simSession) snapshot() []byte {
	return snapshot.EncodeSim(&snapshot.Sim{
		Source:    s.src,
		Format:    s.format,
		Seed:      s.seed,
		Pos:       s.sim.Pos(),
		Classical: s.sim.Classical(),
		PeakNodes: s.sim.PeakNodes(),
		State:     s.sim.Pkg().AppendVectorBinary(nil, s.sim.State()),
	})
}

// resumeSimSession rebuilds a session from its durable form: re-parse
// the original source, decode the DD state bit-exactly under the node
// budget, and resume the simulator at the stored position.
func resumeSimSession(blob []byte, maxNodes int) (session, error) {
	snap, _, err := snapshot.Decode(blob)
	if err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, errors.New("web: restore: snapshot holds no simulation session")
	}
	circ, err := ParseCircuit(snap.Source, snap.Format)
	if err != nil {
		return nil, fmt.Errorf("web: restore: circuit no longer parses: %w", err)
	}
	s := &simSession{sessionBase: sessionBase{acct: newSessionAccount()}, src: snap.Source, format: snap.Format, seed: snap.Seed}
	s.sim, err = sim.Resume(circ, snap.Pos, snap.Classical, snap.PeakNodes,
		func(p *dd.Pkg) (dd.VEdge, error) { return p.DecodeVectorBinary(snap.State) },
		sim.WithSeed(snap.Seed), sim.WithMaxNodes(maxNodes), sim.WithChooser(s.chooser()))
	if err != nil {
		return nil, err
	}
	return s, nil
}

// pending reports whether the next op needs a dialog choice.
func (s *simSession) pending() *PendingChoice {
	if s.forced != nil || s.sim.AtEnd() {
		return nil
	}
	circ := s.sim.Circuit()
	op := &circ.Ops[s.sim.Pos()]
	if op.Kind != qc.KindMeasure && op.Kind != qc.KindReset {
		return nil
	}
	q := op.Targets[0]
	p1 := s.sim.ProbOne(q)
	if p1 <= superpositionEps || 1-p1 <= superpositionEps {
		return nil // deterministic, no dialog
	}
	kind := "measure"
	if op.Kind == qc.KindReset {
		kind = "reset"
	}
	return &PendingChoice{OpIndex: s.sim.Pos(), Kind: kind, Qubit: q, P0: 1 - p1, P1: p1}
}

// fastForward steps to the end or, for "break", past the next special
// op: ⏭ and run-to-end. It stops early at a measurement or reset
// awaiting a dialog choice, returning that choice, and at the request
// deadline. The gates step untraced under one folded span, so a run of
// hundreds of gates is one span of the session's flight recorder.
func (s *simSession) fastForward(ctx context.Context, action string) (last sim.Event, steps int, pending *PendingChoice, err error) {
	ff := startFastForward(ctx, action, s.sim.Pkg(), s.sim.Nodes())
	defer func() { ff.end(steps, s.sim.Nodes(), err) }()
	for !s.sim.AtEnd() {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The loop is bounded by the request deadline: the caller
			// answers with the progress made so far.
			return last, steps, nil, fmt.Errorf("web: fast-forward interrupted at op %d/%d: %w", s.sim.Pos(), len(s.sim.Circuit().Ops), ctxErr)
		}
		if pending = s.pending(); pending != nil {
			return last, steps, pending, nil
		}
		ev, err := s.sim.StepForward()
		if err != nil {
			return last, steps, nil, err
		}
		steps++
		last = ev
		if action == "break" && ev.Op != nil && ev.Op.IsSpecial() {
			break
		}
	}
	return last, steps, nil, nil
}

func (s *simSession) choose(outcome int) error {
	if outcome != 0 && outcome != 1 {
		return fmt.Errorf("web: outcome must be 0 or 1, got %d", outcome)
	}
	if s.pending() == nil {
		return errors.New("web: no measurement or reset is awaiting a choice")
	}
	s.forced = &outcome
	return nil
}

// verifySession drives the alternating equivalence-checking view: it
// steps the checker's own miter (G applied from the left, G′ inverted
// and applied from the right over an identity-initialized diagram) per
// side, fast-forwards to barriers, and keeps unlimited undo.
type verifySession struct {
	sessionBase
	m *verify.Miter
	// Original source inputs, retained verbatim for spill snapshots
	// (same lossy-rendering rationale as simSession).
	leftSrc, rightSrc string
	format            string
	history           []verifySnapshot
}

type verifySnapshot struct {
	x            dd.MEdge
	size, li, ri int
}

func newVerifySession(left, right *qc.Circuit, leftSrc, rightSrc, format string, maxNodes int) (*verifySession, error) {
	p := dd.New(left.NQubits)
	p.SetMaxNodes(maxNodes)
	m, err := verify.NewMiter(p, left, right)
	if err != nil {
		p.Close()
		return nil, err
	}
	return &verifySession{sessionBase: sessionBase{acct: newSessionAccount()}, m: m, leftSrc: leftSrc, rightSrc: rightSrc, format: format}, nil
}

func (v *verifySession) ddPkg() *dd.Pkg { return v.m.Pkg() }

func (v *verifySession) publishShape() { v.m.Pkg().PublishShapeM(v.m.X()) }

func (v *verifySession) snapshot() []byte {
	li, ri := v.m.Pos()
	return snapshot.EncodeVerify(&snapshot.Verify{
		LeftSource:  v.leftSrc,
		LeftFormat:  v.format,
		RightSource: v.rightSrc,
		RightFormat: v.format,
		LI:          li,
		RI:          ri,
		X:           v.m.Pkg().AppendMatrixBinary(nil, v.m.X()),
	})
}

// resumeVerifySession rebuilds a verification session from its durable
// form, validating the stored positions against the re-parsed circuits
// and decoding the matrix diagram bit-exactly under the node budget.
func resumeVerifySession(blob []byte, maxNodes int) (session, error) {
	_, snap, err := snapshot.Decode(blob)
	if err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, errors.New("web: restore: snapshot holds no verification session")
	}
	left, err := ParseCircuit(snap.LeftSource, snap.LeftFormat)
	if err != nil {
		return nil, fmt.Errorf("web: restore: left circuit no longer parses: %w", err)
	}
	right, err := ParseCircuit(snap.RightSource, snap.RightFormat)
	if err != nil {
		return nil, fmt.Errorf("web: restore: right circuit no longer parses: %w", err)
	}
	v, err := newVerifySession(left, right, snap.LeftSource, snap.RightSource, snap.LeftFormat, maxNodes)
	if err != nil {
		return nil, err
	}
	if snap.LI < 0 || snap.LI > len(left.Ops) || snap.RI < 0 || snap.RI > len(right.Ops) {
		return nil, fmt.Errorf("web: restore: positions %d/%d out of range", snap.LI, snap.RI)
	}
	x, err := v.m.Pkg().DecodeMatrixBinary(snap.X)
	if err != nil {
		return nil, err
	}
	if x.IsZero() {
		return nil, errors.New("web: restore: zero verification diagram")
	}
	v.m.Pkg().IncRefM(x)
	v.m.Restore(x, snap.LI, snap.RI, dd.SizeM(x))
	return v, nil
}

// sideOf maps the tab's side names onto the miter's.
func sideOf(side string) (verify.Side, error) {
	switch side {
	case "left":
		return verify.Left, nil
	case "right":
		return verify.Right, nil
	}
	return 0, fmt.Errorf("web: unknown side %q", side)
}

// stepSide applies the next gate of the chosen side ("left" = G,
// "right" = G′), keeping the previous product for undo. It returns the
// applied gate, or nil when that side is exhausted.
func (v *verifySession) stepSide(ctx context.Context, side string) (*qc.Op, error) {
	s, err := sideOf(side)
	if err != nil {
		return nil, err
	}
	li, ri := v.m.Pos() // before Next skips the barriers ahead
	op := v.m.Next(s)
	if op == nil {
		return nil, nil
	}
	var sp *trace.Span
	if trace.Enabled(ctx) {
		_, sp = trace.StartSpan(ctx, "verify:"+side+" "+op.String())
		sp.SetAttr("nodes_before", int64(v.m.Size()))
	}
	err = v.step(s, li, ri)
	if errors.Is(err, dd.ErrResourceExhausted) {
		sp.SetAttr("budget_exhausted", 1)
	} else if err == nil {
		sp.SetAttr("nodes_after", int64(v.m.Size()))
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	return op, nil
}

// step applies the next gate of side s and keeps the previous product,
// at positions li and ri, for undo. After an error the diagram is
// unchanged and the session keeps its position, so the user can undo
// their way back below the node budget.
func (v *verifySession) step(s verify.Side, li, ri int) error {
	next, err := v.m.Try(s)
	if err != nil {
		return err
	}
	v.history = append(v.history, verifySnapshot{x: v.m.X(), size: v.m.Size(), li: li, ri: ri})
	v.m.Pkg().IncRefM(v.m.X()) // snapshot reference
	v.m.Take(s, next)
	return nil
}

// runToBarrier applies gates of the side up to the next barrier (or
// the end), each as one undoable step — the ⏭ button of the
// verification tab. The run is one folded span: its gates add no spans
// of their own.
func (v *verifySession) runToBarrier(ctx context.Context, side string) (applied int, err error) {
	s, err := sideOf(side)
	if err != nil {
		return 0, err
	}
	ff := startFastForward(ctx, side, v.m.Pkg(), v.m.Size())
	defer func() { ff.end(applied, v.m.Size(), err) }()
	// A step back over the run's first gate returns to where the run
	// started, before the barriers RunToBarrier skips.
	li, ri := v.m.Pos()
	return v.m.RunToBarrier(s, func() error {
		err := v.step(s, li, ri)
		li, ri = v.m.Pos()
		return err
	})
}

func (v *verifySession) stepBack() bool {
	if len(v.history) == 0 {
		return false
	}
	snap := v.history[len(v.history)-1]
	v.history = v.history[:len(v.history)-1]
	// The snapshot's reference goes to the miter.
	v.m.Restore(snap.x, snap.li, snap.ri, snap.size)
	return true
}

// identity classifies the current diagram against the identity.
func (v *verifySession) identity() string {
	switch v.m.Identity() {
	case dd.IdentityExact:
		return "identity"
	case dd.IdentityUpToPhase:
		return "identity-up-to-phase"
	default:
		return "not-identity"
	}
}

// Server hosts the tool: static page plus JSON API, with an in-memory
// session store governed by the limits in Config.
type Server struct {
	cfg     Config
	logger  *slog.Logger
	metrics *serverMetrics

	nextSessID atomic.Int64
	nextReqID  atomic.Int64

	sims, verifies sessionKind

	// Durability layer: nil when Config.SpillDir is empty.
	spill    *spiller
	restores restoreFlight

	// Live telemetry pipeline: nil when Config.SampleInterval is zero.
	tele    *telemetry
	liveSeq atomic.Uint64

	// Embedder-registered readiness probes (see SetReadinessProbe).
	probeMu sync.Mutex
	probes  map[string]func() error

	started time.Time

	reaperStop chan struct{}
	reaperDone chan struct{}
	closeOnce  sync.Once
}

// NewServerWithConfig creates a session store with explicit limits
// (zero values disable the corresponding limit). When SessionTTL is
// set, a background reaper evicts idle sessions until Close is called.
// When SpillDir is set, evictions spill sessions to disk and requests
// for evicted ids transparently restore them; if the spill directory
// cannot be opened, the server starts degraded (no durability) rather
// than not at all.
func NewServerWithConfig(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		logger:  cfg.logger(),
		metrics: newServerMetrics(cfg.registry()),
		started: time.Now(),
	}
	s.sims = sessionKind{srv: s, idx: kindSim, resume: resumeSimSession}
	s.verifies = sessionKind{srv: s, idx: kindVerify, resume: resumeVerifySession}
	if cfg.SpillDir != "" {
		store, err := snapshot.OpenStore(cfg.SpillDir, cfg.SpillMaxBytes, nil)
		if err != nil {
			s.logger.Warn("spill store unavailable; sessions will not survive eviction",
				"component", "spill", "dir", cfg.SpillDir, "error", err)
		} else {
			s.spill = newSpiller(store, s.logger, s.metrics)
			s.nextSessID.Store(maxIDSuffix(store.IDs()))
		}
	}
	for _, k := range s.kinds() {
		k.reg = newRegistry[session](cfg.MaxSessions, cfg.SessionTTL)
		k.reg.onClose = func(sess session) { sess.ddPkg().Close() }
		if s.spill != nil {
			k.reg.onEvict = k.spillSession
		}
	}
	if cfg.SampleInterval > 0 {
		s.tele = s.newTelemetry()
		go s.telemetryLoop()
	}
	if cfg.SessionTTL > 0 {
		s.reaperStop = make(chan struct{})
		s.reaperDone = make(chan struct{})
		go s.reaper()
	}
	return s
}

// SpillStore exposes the spill store (nil when disabled) for tests and
// embedding callers.
func (s *Server) SpillStore() *snapshot.Store {
	if s.spill == nil {
		return nil
	}
	return s.spill.store
}

// Close stops the background reaper — waiting until it has fully
// exited, so no sweep races the shutdown — then evicts every live
// session through the eviction path (spilled when a spill store is
// set, so a server restarted on it restores the session and issues
// ids past it; then its engine closes), and flushes in-flight spill
// writes so no session promised to disk is lost. Close is idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.reaperStop != nil {
			close(s.reaperStop)
			<-s.reaperDone
		}
		s.stopTelemetry()
		for _, k := range s.kinds() {
			k.reg.evictAll()
		}
		if s.spill != nil {
			s.spill.flush()
		}
	})
}

// reaper periodically evicts sessions idle past the TTL.
func (s *Server) reaper() {
	defer close(s.reaperDone)
	interval := s.cfg.SessionTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.reaperStop:
			return
		case now := <-t.C:
			s.reapIdle(now)
		}
	}
}

// reapIdle evicts idle sessions once and reports how many went. Split
// from the reaper loop so tests can trigger eviction deterministically.
func (s *Server) reapIdle(now time.Time) int {
	reaped := append(s.sims.reg.reap(now), s.verifies.reg.reap(now)...)
	s.metrics.reaperSweeps.Inc()
	if len(reaped) > 0 {
		s.metrics.evictedTTL.Add(uint64(len(reaped)))
		s.logger.Info("reaped idle sessions",
			"component", "reaper", "count", len(reaped), "sessionIds", reaped)
	}
	return len(reaped)
}

// sessionKind is one tab's session lifecycle: its registry under the
// per-kind LRU cap, its index into the kind-indexed metric series and
// the decoder that resumes its sessions from a spill snapshot. Create,
// acquire, restore, spill and the scrape sweeps are written once over
// it; code differs by kind only in stepping, frames and snapshots.
type sessionKind struct {
	srv    *Server
	idx    int // kindSim or kindVerify
	reg    *registry[session]
	resume func(blob []byte, maxNodes int) (session, error)
}

func (k *sessionKind) label() string { return kindLabels[k.idx] }

// kinds lists both session kinds in kind-index order.
func (s *Server) kinds() [numKinds]*sessionKind {
	return [numKinds]*sessionKind{&s.sims, &s.verifies}
}

// create publishes a new session: it takes an id, instruments the
// session, builds its first frame, registers it and answers with both.
func (k *sessionKind) create(w http.ResponseWriter, r *http.Request, sess session, frame func(vis.Style) Frame) {
	// The id is allocated before the recorder so the flight recorder's
	// track label matches the session id in exported timelines.
	id := fmt.Sprintf("%s-%d", k.label(), k.srv.nextSessID.Add(1))
	k.srv.instrument(id, sess)
	// The frame is built before the put, while no other request can
	// reach the session; the response renders it from its own graph.
	f := frame(styleFrom(query(r)))
	k.srv.metrics.created[k.idx].Inc()
	k.put(r, id, sess, time.Now())
	k.srv.writeFrame(w, r, &frameResponse{Frame: f, ID: id})
}

// put registers the session, evicting the least recently used one of
// its kind at the cap.
func (k *sessionKind) put(r *http.Request, id string, sess session, now time.Time) {
	if evicted := k.reg.put(id, sess, now); evicted != "" {
		k.srv.metrics.evictedLRU.Inc()
		k.srv.reqLogger(r).Info("evicted LRU session", "sessionId", id, "evictedSessionId", evicted)
	}
}

// maxIDSuffix returns the largest numeric suffix among session ids
// ("sim-7" → 7). Session ids count on from it, so a server restarted
// over a spill store never reissues the id of a spilled session.
func maxIDSuffix(ids []string) int64 {
	var top int64
	for _, id := range ids {
		n, err := strconv.ParseInt(id[strings.LastIndexByte(id, '-')+1:], 10, 64)
		if err == nil && n > top {
			top = n
		}
	}
	return top
}

// styleFrom maps the style and labels query parameters onto a
// vis.Style.
func styleFrom(q url.Values) vis.Style {
	st := vis.Style{}
	switch q.Get("style") {
	case "colored":
		st.Mode = vis.Colored
	case "modern":
		st.Mode = vis.Modern
	default:
		st.Mode = vis.Classic
	}
	switch q.Get("labels") {
	case "1", "true", "on":
		yes := true
		st.ShowEdgeLabels = &yes
	case "0", "false", "off":
		no := false
		st.ShowEdgeLabels = &no
	}
	return st
}

// Frame is the render payload common to both tabs.
type Frame struct {
	SVG       string    `json:"svg"`
	Nodes     int       `json:"nodes"`
	Caption   string    `json:"caption,omitempty"`
	Pos       int       `json:"pos"`
	Total     int       `json:"total"`
	Classical []int     `json:"classical,omitempty"`
	Probs     []float64 `json:"probs,omitempty"`
	// Statistics panel payload.
	PathCount int64 `json:"pathCount,omitempty"` // non-zero basis states
	PeakNodes int   `json:"peakNodes,omitempty"`
	LevelHist []int `json:"levelHist,omitempty"` // nodes per qubit level
	// Engine is never written to a response, and no server path fills
	// it: /metrics has the same counters per table and
	// /debug/sessions/top per session. Only the benchmark replay sets
	// it, and the field goes with the replay (ROADMAP item 3(c)).
	Engine *EngineStats `json:"-"`

	// graph, when set, stands in for SVG: the handlers' frames carry
	// the request-owned diagram and its style, and the response
	// appender renders it straight into the body.
	graph *vis.Graph
	style vis.Style
}

// EngineStats holds a package's table and memory-manager counters
// (unique-table load, compute-table traffic, node recycling). Only the
// benchmark replay builds it; see Frame.Engine.
type EngineStats struct {
	LiveNodes           int
	UniqueLoadV         float64
	UniqueLoadM         float64
	UTCollisions        uint64
	CTStores            uint64
	CTEvictions         uint64
	Recycled            uint64
	FreeNodes           int
	GCRuns              uint64
	ApplyLookups        uint64
	ApplyHits           uint64
	ApplyEvictions      uint64
	GatesFused          uint64 // always 0 since fusion was removed
	GateDDCacheHits     uint64
	ApplyMLookups       uint64
	ApplyMHits          uint64
	ApplyMEvictions     uint64
	ApplyMIdentitySkips uint64
	KernelOps           uint64 // matrix-kernel applications
	GenericOps          uint64 // generic MultMM calls
}

// simFrame and verifyFrame walk the diagram once: the graph and every
// frame statistic come from the same listing.
func simFrame(s *simSession, style vis.Style, caption string) Frame {
	p := s.sim.Pkg()
	f := dd.FlattenV(s.sim.State())
	defer f.Release()
	return Frame{
		graph:     vis.FromFlatV(f),
		style:     style,
		Nodes:     f.Size(),
		Caption:   caption,
		Pos:       s.sim.Pos(),
		Total:     len(s.sim.Circuit().Ops),
		Classical: s.sim.Classical(),
		Probs:     p.FlatProbabilities(f),
		PathCount: f.PathCount(),
		PeakNodes: s.sim.PeakNodes(),
		LevelHist: f.LevelHist(p.Qubits()),
	}
}

func verifyFrame(v *verifySession, style vis.Style, caption string) Frame {
	p, left, right := v.m.Pkg(), v.m.Circuit(verify.Left), v.m.Circuit(verify.Right)
	li, ri := v.m.Pos()
	f := dd.FlattenM(v.m.X())
	defer f.Release()
	return Frame{
		graph:     vis.FromFlatM(f),
		style:     style,
		Nodes:     f.Size(),
		Caption:   caption,
		Pos:       gatesBefore(left, li) + gatesBefore(right, ri),
		Total:     left.NumGates() + right.NumGates(),
		PeakNodes: v.m.Peak(),
		LevelHist: f.LevelHist(p.Qubits()),
	}
}

// gatesBefore counts the gate operations before op index pos, so the
// progress display compares like with like (barriers excluded).
func gatesBefore(c *qc.Circuit, pos int) int {
	n := 0
	for i := 0; i < pos && i < len(c.Ops); i++ {
		if c.Ops[i].Kind == qc.KindGate {
			n++
		}
	}
	return n
}

// buildFunctionalityFrame supports the "single circuit loaded" mode of
// the verification tab: it constructs the (inverse) functionality of
// one circuit (Ex. 14) as an unrendered frame. The construction
// aborts with dd.ErrResourceExhausted when the functionality diagram
// would exceed maxNodes (0 = unlimited).
func buildFunctionalityFrame(circ *qc.Circuit, inverse bool, style vis.Style, maxNodes int) (Frame, error) {
	use := circ
	if inverse {
		inv, err := circ.Inverse()
		if err != nil {
			return Frame{}, err
		}
		use = inv
	}
	p := dd.New(use.NQubits)
	defer p.Close() // the graph copies what it draws
	p.SetMaxNodes(maxNodes)
	u, err := verify.Functionality(p, use)
	if err != nil {
		return Frame{}, err
	}
	g := vis.FromMatrix(u)
	caption := "functionality of " + circ.Name
	if inverse {
		caption = "inverse " + caption
	}
	return Frame{
		graph:   g,
		style:   style,
		Nodes:   g.NodeCount(),
		Caption: caption,
		Pos:     use.NumGates(),
		Total:   use.NumGates(),
	}, nil
}
