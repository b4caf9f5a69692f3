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

// simSession wraps a simulator with the dialog protocol: when the next
// operation measures a qubit in superposition, stepping reports a
// PendingChoice instead of advancing; the client resolves it with an
// explicit outcome.
type simSession struct {
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
	// rec is the session's flight recorder (nil when tracing is
	// disabled). Assigned once before the session is published to the
	// registry; its Snapshot side is safe from any goroutine.
	rec *trace.Recorder
	// acct meters the session's cumulative resource usage (requests,
	// DD ops, DD wall time). Assigned at construction; all-atomic, so
	// the top endpoint and telemetry tick read it from any goroutine.
	acct *sessionAccount
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
	s := &simSession{src: src, format: format, seed: seed, acct: newSessionAccount()}
	s.sim = sim.New(circ, sim.WithSeed(seed), sim.WithMaxNodes(maxNodes), sim.WithChooser(s.chooser()))
	return s
}

// snapshot serializes the session for spill-to-disk. Called with the
// per-session lock held (exclusive access), so the reads are
// consistent. The step history is not persisted; a restored session
// cannot step backward past the restore point.
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
func resumeSimSession(snap *snapshot.Sim, maxNodes int) (*simSession, error) {
	circ, err := ParseCircuit(snap.Source, snap.Format)
	if err != nil {
		return nil, fmt.Errorf("web: restore: circuit no longer parses: %w", err)
	}
	s := &simSession{src: snap.Source, format: snap.Format, seed: snap.Seed, acct: newSessionAccount()}
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

// verifySession drives the alternating equivalence-checking view: two
// gate lists (G applied from the left, G′ inverted and applied from
// the right) over an identity-initialized diagram, with per-side
// stepping, barrier-aware "fast-forward" and unlimited undo.
type verifySession struct {
	pkg   *dd.Pkg
	left  *qc.Circuit
	right *qc.Circuit
	x     dd.MEdge
	// Original source inputs, retained verbatim for spill snapshots
	// (same lossy-rendering rationale as simSession).
	leftSrc, rightSrc string
	format            string
	// positions index into the circuits' op lists (barriers are
	// skipped transparently but delimit RunToBarrier).
	li, ri  int
	peak    int // largest node count the product diagram has reached
	history []verifySnapshot
	rec     *trace.Recorder // flight recorder; nil when tracing is disabled
	acct    *sessionAccount // resource meters; see accounting.go
}

type verifySnapshot struct {
	x      dd.MEdge
	li, ri int
}

func newVerifySession(left, right *qc.Circuit, leftSrc, rightSrc, format string, maxNodes int) (*verifySession, error) {
	if left.NQubits != right.NQubits {
		return nil, fmt.Errorf("web: circuits must have the same number of qubits (%d vs %d)", left.NQubits, right.NQubits)
	}
	if left.HasNonUnitary() || right.HasNonUnitary() {
		return nil, errors.New("web: measurement, reset and classically-controlled operations are not supported in verification")
	}
	p := dd.New(left.NQubits)
	p.SetMaxNodes(maxNodes)
	v := &verifySession{
		pkg: p, left: left, right: right,
		leftSrc: leftSrc, rightSrc: rightSrc, format: format,
		x:    p.Ident(),
		acct: newSessionAccount(),
	}
	v.pkg.IncRefM(v.x)
	v.peak = dd.SizeM(v.x)
	return v, nil
}

// snapshot serializes the session for spill-to-disk; called with the
// per-session lock held. The undo history is not persisted.
func (v *verifySession) snapshot() []byte {
	return snapshot.EncodeVerify(&snapshot.Verify{
		LeftSource:  v.leftSrc,
		LeftFormat:  v.format,
		RightSource: v.rightSrc,
		RightFormat: v.format,
		LI:          v.li,
		RI:          v.ri,
		X:           v.pkg.AppendMatrixBinary(nil, v.x),
	})
}

// resumeVerifySession rebuilds a verification session from its durable
// form, validating the stored positions against the re-parsed circuits
// and decoding the matrix diagram bit-exactly under the node budget.
func resumeVerifySession(snap *snapshot.Verify, maxNodes int) (*verifySession, error) {
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
	x, err := v.pkg.DecodeMatrixBinary(snap.X)
	if err != nil {
		return nil, err
	}
	if x.IsZero() {
		return nil, errors.New("web: restore: zero verification diagram")
	}
	v.pkg.IncRefM(x)
	v.pkg.DecRefM(v.x)
	v.x = x
	v.li, v.ri = snap.LI, snap.RI
	v.peak = dd.SizeM(v.x)
	return v, nil
}

func (v *verifySession) gateDD(op *qc.Op, invert bool) dd.MEdge {
	g, params := op.Gate, op.Params
	if invert {
		g, params = qc.InverseGate(op.Gate, op.Params)
	}
	ctl := make([]dd.Control, len(op.Controls))
	for i, c := range op.Controls {
		ctl[i] = dd.Control{Qubit: c.Qubit, Neg: c.Neg}
	}
	if g == qc.Swap {
		return v.pkg.MakeSwapDD(op.Targets[0], op.Targets[1], ctl...)
	}
	return v.pkg.MakeGateDD(dd.GateMatrix(qc.Matrix2(g, params)), op.Targets[0], ctl...)
}

// applyOp multiplies one gate into the product diagram: G ops from the
// left (U·x), G′ ops inverted from the right (x·U⁻¹). Plain gates go
// through the matrix-apply kernel (the identity-skipping descent of
// ApplyGateML/MR); SWAP — a two-target permutation the 2×2 kernel
// cannot express in one call — stays on the materialized gate DD and
// the generic checked multiply.
func (v *verifySession) applyOp(op *qc.Op, side string) (dd.MEdge, error) {
	if op.Gate == qc.Swap {
		if side == "left" {
			return v.pkg.MultMMChecked(v.gateDD(op, false), v.x)
		}
		return v.pkg.MultMMChecked(v.x, v.gateDD(op, true))
	}
	ctl := make([]dd.Control, len(op.Controls))
	for i, c := range op.Controls {
		ctl[i] = dd.Control{Qubit: c.Qubit, Neg: c.Neg}
	}
	if side == "left" {
		u := dd.GateMatrix(qc.Matrix2(op.Gate, op.Params))
		return v.pkg.ApplyGateMLChecked(v.x, u, op.Targets[0], ctl...)
	}
	g, params := qc.InverseGate(op.Gate, op.Params)
	u := dd.GateMatrix(qc.Matrix2(g, params))
	return v.pkg.ApplyGateMRChecked(v.x, u, op.Targets[0], ctl...)
}

// stepSide applies the next gate of the chosen side ("left" = G,
// "right" = G′). It returns the description of the applied gate, or
// "" when that side is exhausted.
func (v *verifySession) stepSide(ctx context.Context, side string) (string, error) {
	var circ *qc.Circuit
	var pos *int
	switch side {
	case "left":
		circ, pos = v.left, &v.li
	case "right":
		circ, pos = v.right, &v.ri
	default:
		return "", fmt.Errorf("web: unknown side %q", side)
	}
	// Skip barriers.
	for *pos < len(circ.Ops) && circ.Ops[*pos].Kind == qc.KindBarrier {
		*pos++
	}
	if *pos >= len(circ.Ops) {
		return "", nil
	}
	op := &circ.Ops[*pos]
	var sp *trace.Span
	if trace.Enabled(ctx) {
		_, sp = trace.StartSpan(ctx, "verify:"+side+" "+op.String())
		sp.SetAttr("nodes_before", int64(dd.SizeM(v.x)))
	}
	next, err := v.applyOp(op, side)
	if err != nil {
		if errors.Is(err, dd.ErrResourceExhausted) {
			sp.SetAttr("budget_exhausted", 1)
		}
		sp.End()
		// The diagram is unchanged; the session keeps its position so
		// the user can undo their way back below the budget.
		return "", err
	}
	n := dd.SizeM(next)
	sp.SetAttr("nodes_after", int64(n))
	if n > v.peak {
		v.peak = n
	}
	sp.End()
	v.history = append(v.history, verifySnapshot{x: v.x, li: v.li, ri: v.ri})
	v.pkg.IncRefM(v.x) // snapshot reference
	v.pkg.IncRefM(next)
	v.pkg.DecRefM(v.x)
	v.x = next
	v.pkg.MaybeShapeM(v.x)
	*pos++
	return op.String(), nil
}

func (v *verifySession) sideCirc(side string) *qc.Circuit {
	if side == "right" {
		return v.right
	}
	return v.left
}

func (v *verifySession) sidePos(side string) int {
	if side == "right" {
		return v.ri
	}
	return v.li
}

func (v *verifySession) setSidePos(side string, pos int) {
	if side == "right" {
		v.ri = pos
	} else {
		v.li = pos
	}
}

// runToBarrier applies gates of the side up to the next barrier (or
// the end) — the ⏭ button of the verification tab, which Ex. 12 uses
// to consume "all gates from the circuit up to the next barrier".
func (v *verifySession) runToBarrier(ctx context.Context, side string) (applied int, err error) {
	if side != "left" && side != "right" {
		return 0, fmt.Errorf("web: unknown side %q", side)
	}
	if trace.Enabled(ctx) {
		var sp *trace.Span
		ctx, sp = trace.StartSpan(ctx, "fast-forward:"+side)
		defer func() {
			sp.SetAttr("ops", int64(applied))
			sp.End()
		}()
	}
	for {
		circ, pos := v.sideCirc(side), v.sidePos(side)
		if pos >= len(circ.Ops) {
			return applied, nil
		}
		if circ.Ops[pos].Kind == qc.KindBarrier {
			if applied > 0 {
				// Stop at the barrier; the next invocation skips it.
				return applied, nil
			}
			v.setSidePos(side, pos+1)
			continue
		}
		if _, err := v.stepSide(ctx, side); err != nil {
			return applied, err
		}
		applied++
	}
}

func (v *verifySession) stepBack() bool {
	if len(v.history) == 0 {
		return false
	}
	snap := v.history[len(v.history)-1]
	v.history = v.history[:len(v.history)-1]
	v.pkg.DecRefM(v.x)
	v.x = snap.x // reference transferred from the snapshot
	v.li, v.ri = snap.li, snap.ri
	return true
}

// identity classifies the current diagram against the identity.
func (v *verifySession) identity() string {
	switch v.pkg.CheckIdentity(v.x) {
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

	sims     *registry[*simSession]
	verifies *registry[*verifySession]

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

// NewServer creates a session store with the default limits. The seed
// makes sampled measurement outcomes reproducible across restarts.
func NewServer(seed int64) *Server {
	cfg := DefaultConfig()
	cfg.Seed = seed
	return NewServerWithConfig(cfg)
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
		cfg:      cfg,
		logger:   cfg.logger(),
		metrics:  newServerMetrics(cfg.registry()),
		sims:     newRegistry[*simSession](cfg.MaxSessions, cfg.SessionTTL),
		verifies: newRegistry[*verifySession](cfg.MaxSessions, cfg.SessionTTL),
		started:  time.Now(),
	}
	if cfg.SpillDir != "" {
		store, err := snapshot.OpenStore(cfg.SpillDir, cfg.SpillMaxBytes, nil)
		if err != nil {
			s.logger.Warn("spill store unavailable; sessions will not survive eviction",
				"component", "spill", "dir", cfg.SpillDir, "error", err)
		} else {
			s.spill = newSpiller(store, s.logger, s.metrics)
			s.sims.onEvict = s.spillSim
			s.verifies.onEvict = s.spillVerify
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
// exited, so no sweep races the shutdown — and flushes in-flight spill
// writes so no session promised to disk is lost. Sessions are dropped
// with the server itself; Close is idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.reaperStop != nil {
			close(s.reaperStop)
			<-s.reaperDone
		}
		s.stopTelemetry()
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
	reaped := append(s.sims.reap(now), s.verifies.reap(now)...)
	s.metrics.reaperSweeps.Inc()
	if len(reaped) > 0 {
		s.metrics.evictedTTL.Add(uint64(len(reaped)))
		s.logger.Info("reaped idle sessions",
			"component", "reaper", "count", len(reaped), "sessionIds", reaped)
	}
	return len(reaped)
}

func (s *Server) newID(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, s.nextSessID.Add(1))
}

// styleFrom maps query parameters onto a vis.Style.
func styleFrom(mode string, labels string) vis.Style {
	st := vis.Style{}
	switch mode {
	case "colored":
		st.Mode = vis.Colored
	case "modern":
		st.Mode = vis.Modern
	default:
		st.Mode = vis.Classic
	}
	switch labels {
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
	PathCount int64        `json:"pathCount,omitempty"` // non-zero basis states
	PeakNodes int          `json:"peakNodes,omitempty"`
	LevelHist []int        `json:"levelHist,omitempty"` // nodes per qubit level
	Engine    *EngineStats `json:"engine,omitempty"`    // table & memory counters
}

// EngineStats surfaces the DD engine's table and memory-manager
// counters (unique-table load, compute-table traffic, node recycling)
// in the statistics panel, next to the structural diagram metrics.
type EngineStats struct {
	LiveNodes    int     `json:"liveNodes"`
	UniqueLoadV  float64 `json:"uniqueLoadV"`
	UniqueLoadM  float64 `json:"uniqueLoadM"`
	UTCollisions uint64  `json:"utCollisions"`
	CTStores     uint64  `json:"ctStores"`
	CTEvictions  uint64  `json:"ctEvictions"`
	Recycled     uint64  `json:"recycled"`
	FreeNodes    int     `json:"freeNodes"`
	GCRuns       uint64  `json:"gcRuns"`
	// Gate-application kernel counters (PR 4).
	ApplyLookups    uint64 `json:"applyLookups"`
	ApplyHits       uint64 `json:"applyHits"`
	ApplyEvictions  uint64 `json:"applyEvictions"`
	GatesFused      uint64 `json:"gatesFused"`
	GateDDCacheHits uint64 `json:"gateDDCacheHits"`
	// Matrix-apply kernel counters (PR 9). KernelOps vs GenericOps is
	// the per-session split between the identity-skipping matrix kernel
	// and the generic MultMM fallback (SWAPs, restored sessions).
	ApplyMLookups       uint64 `json:"applyMLookups"`
	ApplyMHits          uint64 `json:"applyMHits"`
	ApplyMEvictions     uint64 `json:"applyMEvictions"`
	ApplyMIdentitySkips uint64 `json:"applyMIdentitySkips"`
	KernelOps           uint64 `json:"kernelOps"`
	GenericOps          uint64 `json:"genericOps"`
}

func engineStats(p *dd.Pkg) *EngineStats {
	st := p.Stats()
	return &EngineStats{
		LiveNodes:    p.LiveNodes(),
		UniqueLoadV:  st.UniqueLoadV,
		UniqueLoadM:  st.UniqueLoadM,
		UTCollisions: st.UTCollisions,
		CTStores:     st.CTStores,
		CTEvictions:  st.CTEvictions,
		Recycled:     st.NodesRecycledV + st.NodesRecycledM,
		FreeNodes:    st.FreeNodesV + st.FreeNodesM,
		GCRuns:       st.GCRuns,

		ApplyLookups:    st.ApplyCTLookups,
		ApplyHits:       st.ApplyCTHits,
		ApplyEvictions:  st.ApplyCTEvictions,
		GatesFused:      st.GatesFused,
		GateDDCacheHits: st.GateDDCacheHits,

		ApplyMLookups:       st.ApplyMCTLookups,
		ApplyMHits:          st.ApplyMCTHits,
		ApplyMEvictions:     st.ApplyMCTEvictions,
		ApplyMIdentitySkips: st.ApplyMIdentitySkips,
		KernelOps:           st.ApplyMOps,
		GenericOps:          st.MultMMOps,
	}
}

func simFrame(s *simSession, style vis.Style, caption string) Frame {
	g := vis.FromVector(s.sim.State())
	return Frame{
		SVG:       vis.FrameSVG(g, style, caption),
		Nodes:     g.NodeCount(),
		Caption:   caption,
		Pos:       s.sim.Pos(),
		Total:     len(s.sim.Circuit().Ops),
		Classical: s.sim.Classical(),
		Probs:     s.sim.Pkg().Probabilities(s.sim.State()),
		PathCount: dd.PathCount(s.sim.State()),
		PeakNodes: s.sim.PeakNodes(),
		LevelHist: s.sim.Pkg().SizeByLevelV(s.sim.State()),
		Engine:    engineStats(s.sim.Pkg()),
	}
}

func verifyFrame(v *verifySession, style vis.Style, caption string) Frame {
	g := vis.FromMatrix(v.x)
	return Frame{
		SVG:       vis.FrameSVG(g, style, caption),
		Nodes:     g.NodeCount(),
		Caption:   caption,
		Pos:       gatesBefore(v.left, v.li) + gatesBefore(v.right, v.ri),
		Total:     v.left.NumGates() + v.right.NumGates(),
		PeakNodes: v.peak,
		LevelHist: v.pkg.SizeByLevelM(v.x),
		Engine:    engineStats(v.pkg),
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

// For tests: expose internals.
func (v *verifySession) positions() (int, int) { return v.li, v.ri }
func (v *verifySession) nodeCount() int        { return dd.SizeM(v.x) }

// BuildFunctionalityFrame supports the "single circuit loaded" mode of
// the verification tab: it constructs the (inverse) functionality of
// one circuit (Ex. 14) and returns its rendered frame.
func BuildFunctionalityFrame(circ *qc.Circuit, inverse bool, style vis.Style) (Frame, error) {
	return buildFunctionalityFrame(circ, inverse, style, 0)
}

// buildFunctionalityFrame is BuildFunctionalityFrame with a node
// budget: the construction aborts with dd.ErrResourceExhausted when
// the functionality diagram would exceed maxNodes (0 = unlimited).
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
	p.SetMaxNodes(maxNodes)
	u, _, err := verify.BuildFunctionality(p, use)
	if err != nil {
		return Frame{}, err
	}
	g := vis.FromMatrix(u)
	caption := "functionality of " + circ.Name
	if inverse {
		caption = "inverse " + caption
	}
	return Frame{
		SVG:     vis.FrameSVG(g, style, caption),
		Nodes:   g.NodeCount(),
		Caption: caption,
		Pos:     use.NumGates(),
		Total:   use.NumGates(),
	}, nil
}
