package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/verify"
	"quantumdd/internal/vis"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ws := NewServerWithConfig(DefaultConfig())
	t.Cleanup(ws.Close)
	srv := httptest.NewServer(ws.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// sessionStats returns the counters of the package of session id in
// kind.
func sessionStats(t *testing.T, kind *sessionKind, id string) dd.Stats {
	t.Helper()
	h, err := kind.reg.acquire(id, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer h.release()
	return h.val.ddPkg().Stats()
}

func post(t *testing.T, srv *httptest.Server, path string, body interface{}, out interface{}) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp
}

func get(t *testing.T, srv *httptest.Server, path string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp
}

func TestIndexAndColorWheel(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, resp.Header.Get("Content-Type")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "text/html") {
		t.Fatalf("index content type %q", sb.String())
	}
	wheel, err := http.Get(srv.URL + "/colorwheel.svg")
	if err != nil {
		t.Fatal(err)
	}
	defer wheel.Body.Close()
	if ct := wheel.Header.Get("Content-Type"); !strings.Contains(ct, "svg") {
		t.Fatalf("wheel content type %q", ct)
	}
	if missing, err := http.Get(srv.URL + "/nosuchpage"); err != nil {
		t.Fatal(err)
	} else if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status %d", missing.StatusCode)
	}
}

func TestExamplesEndpoint(t *testing.T) {
	srv := newTestServer(t)
	var examples []Example
	get(t, srv, "/api/examples", &examples)
	if len(examples) < 8 {
		t.Fatalf("only %d examples", len(examples))
	}
	// Each example must be loadable by the tool itself (the algorithm
	// box auto-detects the format).
	for _, ex := range examples {
		if _, err := ParseCircuit(ex.Code, ""); err != nil {
			t.Fatalf("example %q does not parse: %v", ex.Name, err)
		}
	}
}

type newResp struct {
	ID    string `json:"id"`
	Frame Frame  `json:"frame"`
}

func TestSimulationFlowFig8(t *testing.T) {
	srv := newTestServer(t)
	var created newResp
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.BellMeasured().QASM()}, &created)
	if created.ID == "" || !strings.Contains(created.Frame.SVG, "<svg") {
		t.Fatalf("creation failed: %+v", created)
	}
	if created.Frame.Nodes != 2 {
		t.Fatalf("initial |00> has %d nodes, want 2", created.Frame.Nodes)
	}
	step := func(action string) stepResponse {
		var out stepResponse
		post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: action}, &out)
		return out
	}
	// H then CNOT (Fig. 8(a)→(b)).
	r := step("forward")
	if !strings.Contains(r.Event, "applied h") {
		t.Fatalf("first event %q", r.Event)
	}
	r = step("forward")
	if r.Frame.Nodes != 3 {
		t.Fatalf("Bell state frame has %d nodes, want 3", r.Frame.Nodes)
	}
	// Measurement in superposition → pending dialog (Fig. 8(c)).
	r = step("forward")
	if r.Pending == nil || r.Pending.Qubit != 0 {
		t.Fatalf("expected pending measurement, got %+v", r)
	}
	if r.Pending.P0 < 0.49 || r.Pending.P0 > 0.51 {
		t.Fatalf("dialog p0 = %v, want 0.5", r.Pending.P0)
	}
	// Choose |1⟩ (Fig. 8(d)).
	var chosen stepResponse
	post(t, srv, "/api/simulation/"+created.ID+"/choose", chooseRequest{Outcome: 1}, &chosen)
	if !strings.Contains(chosen.Event, "measured q[0] = 1") {
		t.Fatalf("choose event %q", chosen.Event)
	}
	// Second measurement is deterministic: no dialog, straight to end.
	r = step("forward")
	if r.Pending != nil {
		t.Fatalf("deterministic measurement must not open a dialog")
	}
	if !strings.Contains(r.Event, "measured q[1] = 1") {
		t.Fatalf("entangled partner event %q", r.Event)
	}
	if !r.AtEnd {
		t.Fatal("should be at end")
	}
	if got := r.Frame.Classical; got[0] != 1 || got[1] != 1 {
		t.Fatalf("classical register %v", got)
	}
	// Backward and rewind.
	r = step("backward")
	if r.AtEnd {
		t.Fatal("backward did not move")
	}
	r = step("start")
	if !r.AtStart {
		t.Fatal("start did not rewind")
	}
}

// TestSimulationBreakAction runs ⏭ with breakpoints: each break stops
// just after the next special op (a barrier, then a measurement) and
// the last one runs the tail to the end.
func TestSimulationBreakAction(t *testing.T) {
	srv := newTestServer(t)
	code := `
qreg q[2];
creg c[1];
h q[0];
barrier q;
x q[1];
measure q[1] -> c[0];
h q[1];
`
	var created newResp
	post(t, srv, "/api/simulation", newSimRequest{Code: code}, &created)
	for _, want := range []struct {
		pos   int
		event string
	}{{2, "barrier"}, {4, "measured q[1] = 1"}, {5, ""}} {
		var r stepResponse
		post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "break"}, &r)
		if r.Frame.Pos != want.pos || !strings.Contains(r.Event, want.event) || r.Pending != nil {
			t.Fatalf("break stopped at op %d with %q (pending %v), want op %d with %q", r.Frame.Pos, r.Event, r.Pending, want.pos, want.event)
		}
		if r.AtEnd != (want.pos == 5) {
			t.Fatalf("break to op %d: at end %v", r.Frame.Pos, r.AtEnd)
		}
	}
}

func TestChooseWithoutPendingRejected(t *testing.T) {
	srv := newTestServer(t)
	var created newResp
	post(t, srv, "/api/simulation", newSimRequest{Code: "qreg q[1];\nh q[0];\n"}, &created)
	resp := post(t, srv, "/api/simulation/"+created.ID+"/choose", chooseRequest{Outcome: 0}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestSimulationParseErrors(t *testing.T) {
	srv := newTestServer(t)
	resp := post(t, srv, "/api/simulation", newSimRequest{Code: "not qasm at all"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	resp = post(t, srv, "/api/simulation/sim-999/step", stepRequest{Action: "forward"}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestVerificationFlowEx12(t *testing.T) {
	srv := newTestServer(t)
	var created newResp
	post(t, srv, "/api/verification", newVerifyRequest{
		Left:  algorithms.QFT(3).QASM(),
		Right: algorithms.QFTCompiled(3).QASM(),
	}, &created)
	if created.Frame.Nodes != 3 {
		t.Fatalf("initial identity has %d nodes, want 3", created.Frame.Nodes)
	}
	step := func(side, action string) verifyStepResponse {
		var out verifyStepResponse
		post(t, srv, "/api/verification/"+created.ID+"/step", verifyStepRequest{Side: side, Action: action}, &out)
		return out
	}
	peak := 3
	// The Ex. 12 walk: one gate from G, then all gates of G' up to the
	// next barrier, repeated until both are consumed.
	for i := 0; i < 7; i++ {
		r := step("left", "forward")
		if r.Frame.Nodes > peak {
			peak = r.Frame.Nodes
		}
		r = step("right", "barrier")
		if r.Frame.Nodes > peak {
			peak = r.Frame.Nodes
		}
	}
	final := step("right", "barrier") // drain any leftovers
	if final.Identity != "identity" && final.Identity != "identity-up-to-phase" {
		t.Fatalf("final diagram is %q, want identity", final.Identity)
	}
	if peak > 9 {
		t.Fatalf("Ex. 12 walk peaked at %d nodes, want <= 9", peak)
	}
	// Undo restores positions.
	before := final.LeftPos + final.RightPos
	r := step("left", "backward")
	if r.LeftPos+r.RightPos >= before {
		t.Fatalf("undo did not rewind: %d -> %d", before, r.LeftPos+r.RightPos)
	}
}

// TestVerificationTabAgreesWithCheckOn drives the verification tab
// through two of the checker's schedules to the end of both circuits:
// left, right, left, … (one-to-one), and all of the left, then all of
// the right (sequential). It holds the verdict, phase flag, final and
// peak node counts of its last frame and the kernel-op count of its
// package to verify.CheckOn's Result under the same strategy: both
// step one miter. One pair's right side carries barriers, which the
// tab steps over.
func TestVerificationTabAgreesWithCheckOn(t *testing.T) {
	cswap := qc.New(3, 0)
	cswap.H(0).H(1).Gate(qc.RY, []float64{0.4}, 2)
	cswap.SwapGate(1, 2, qc.Control{Qubit: 0})
	lowered := qc.New(3, 0)
	lowered.H(0).H(1).Gate(qc.RY, []float64{0.4}, 2)
	lowered.CX(2, 1).CCX(0, 1, 2).CX(2, 1)
	faulty := algorithms.QFTCompiled(3)
	faulty.X(1)
	barriers, err := qc.CompileNative(algorithms.QFT(3), qc.CompileOptions{EmitBarriers: true})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		name   string
		c1, c2 *qc.Circuit
		equiv  bool
	}{
		{"qft3", algorithms.QFT(3), algorithms.QFTCompiled(3), true},
		{"cswap", cswap, lowered, true},
		{"faulty", algorithms.QFT(3), faulty, false},
		{"barriers", algorithms.QFT(3), barriers, true},
	}
	// Each walk steps the tab through step, which reports whether a
	// gate was applied.
	walks := map[verify.Strategy]func(step func(side string) bool){
		verify.OneToOne: func(step func(string) bool) {
			for applied := true; applied; {
				applied = step("left")
				applied = step("right") || applied
			}
		},
		verify.Sequential: func(step func(string) bool) {
			for step("left") {
			}
			for step("right") {
			}
		},
	}
	for _, pair := range pairs {
		t.Run(pair.name, func(t *testing.T) {
			for _, strategy := range []verify.Strategy{verify.OneToOne, verify.Sequential} {
				t.Run(strategy.String(), func(t *testing.T) {
					want, err := verify.CheckOn(dd.New(pair.c1.NQubits), pair.c1, pair.c2, strategy)
					if err != nil || want.Equivalent != pair.equiv {
						t.Fatalf("CheckOn: %+v, %v; want equivalent=%v", want, err, pair.equiv)
					}
					ws := NewServerWithConfig(DefaultConfig())
					t.Cleanup(ws.Close)
					srv := httptest.NewServer(ws.Handler())
					t.Cleanup(srv.Close)
					var created newResp
					post(t, srv, "/api/verification", newVerifyRequest{Left: pair.c1.QASM(), Right: pair.c2.QASM()}, &created)
					var last verifyStepResponse
					walks[strategy](func(side string) bool {
						last = verifyStepResponse{}
						post(t, srv, "/api/verification/"+created.ID+"/step", verifyStepRequest{Side: side, Action: "forward"}, &last)
						return last.Applied != ""
					})
					if last.LeftPos != len(pair.c1.Ops) || last.RightPos != len(pair.c2.Ops) {
						t.Fatalf("walk ended at %d/%d, want %d/%d", last.LeftPos, last.RightPos, len(pair.c1.Ops), len(pair.c2.Ops))
					}
					equivalent := last.Identity != "not-identity"
					upToPhase := last.Identity == "identity-up-to-phase"
					if equivalent != want.Equivalent || upToPhase != want.UpToGlobalPhase {
						t.Fatalf("tab says %q, CheckOn equivalent=%v up-to-phase=%v", last.Identity, want.Equivalent, want.UpToGlobalPhase)
					}
					if last.Frame.Nodes != want.FinalNodes {
						t.Fatalf("tab ends with %d nodes, CheckOn with %d", last.Frame.Nodes, want.FinalNodes)
					}
					if last.Frame.PeakNodes != want.PeakNodes {
						t.Fatalf("tab peaks at %d nodes, CheckOn at %d", last.Frame.PeakNodes, want.PeakNodes)
					}
					if got := int(sessionStats(t, &ws.verifies, created.ID).ApplyMOps); got != want.KernelOps {
						t.Fatalf("tab counts %d kernel ops, CheckOn %d", got, want.KernelOps)
					}
				})
			}
		})
	}
}

func TestVerificationRejectsNonUnitaryAndMismatch(t *testing.T) {
	srv := newTestServer(t)
	resp := post(t, srv, "/api/verification", newVerifyRequest{
		Left:  "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\n",
		Right: "qreg q[1];\n",
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	resp = post(t, srv, "/api/verification", newVerifyRequest{
		Left:  "qreg q[1];\nh q[0];\n",
		Right: "qreg q[2];\nh q[0];\n",
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (width mismatch)", resp.StatusCode)
	}
}

func TestParseCircuitFormats(t *testing.T) {
	realSrc := ".numvars 2\n.variables a b\n.begin\nt2 a b\n.end\n"
	if _, err := ParseCircuit(realSrc, "real"); err != nil {
		t.Fatal(err)
	}
	// Auto-detection.
	if _, err := ParseCircuit(realSrc, ""); err != nil {
		t.Fatalf("auto-detect real failed: %v", err)
	}
	if _, err := ParseCircuit("qreg q[1];\nh q[0];\n", ""); err != nil {
		t.Fatalf("auto-detect qasm failed: %v", err)
	}
	if _, err := ParseCircuit("x", "nope"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestStyleQueryChangesRendering(t *testing.T) {
	srv := newTestServer(t)
	var created newResp
	post(t, srv, "/api/simulation?style=colored&labels=0", newSimRequest{Code: algorithms.Bell().QASM()}, &created)
	var r stepResponse
	post(t, srv, "/api/simulation/"+created.ID+"/step?style=colored&labels=0", stepRequest{Action: "end"}, &r)
	if !strings.Contains(r.Frame.SVG, vis.PhaseColor(1)) {
		t.Fatal("colored style not applied")
	}
	if strings.Contains(r.Frame.SVG, "stroke-dasharray") {
		t.Fatal("colored style should not dash")
	}
}

func TestBuildFunctionalityFrame(t *testing.T) {
	frame, err := buildFunctionalityFrame(algorithms.QFT(3), false, vis.Style{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Nodes != 21 {
		t.Fatalf("QFT3 functionality frame has %d nodes, want 21 (Fig. 6)", frame.Nodes)
	}
	inv, err := buildFunctionalityFrame(algorithms.QFT(3), true, vis.Style{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Nodes != 21 {
		t.Fatalf("inverse functionality frame has %d nodes, want 21", inv.Nodes)
	}
	if !strings.Contains(inv.Caption, "inverse") {
		t.Fatalf("caption %q", inv.Caption)
	}
}

func TestExportEndpoints(t *testing.T) {
	srv := newTestServer(t)
	var created newResp
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.Bell().QASM()}, &created)
	var r stepResponse
	post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "end"}, &r)

	resp, err := http.Get(srv.URL + "/api/simulation/" + created.ID + "/export?format=svg")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if !strings.Contains(resp.Header.Get("Content-Type"), "svg") || !strings.Contains(body, "<svg") {
		t.Fatalf("svg export wrong: %s / %q", resp.Header.Get("Content-Type"), body[:40])
	}
	resp, err = http.Get(srv.URL + "/api/simulation/" + created.ID + "/export?format=dot")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	if !strings.Contains(body, "digraph dd") {
		t.Fatal("dot export wrong")
	}
	resp, err = http.Get(srv.URL + "/api/simulation/" + created.ID + "/export?format=png")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Verification export.
	var vcreated newResp
	post(t, srv, "/api/verification", newVerifyRequest{
		Left:  algorithms.QFT(3).QASM(),
		Right: algorithms.QFTCompiled(3).QASM(),
	}, &vcreated)
	resp, err = http.Get(srv.URL + "/api/verification/" + vcreated.ID + "/export")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); !strings.Contains(body, "<svg") {
		t.Fatal("verification export wrong")
	}
}

// TestDOTExportDeterministic exports the final W(4) state, three of
// whose levels hold two nodes each, as DOT ten times: every export of
// the one session must return the same bytes.
func TestDOTExportDeterministic(t *testing.T) {
	srv := newTestServer(t)
	var created newResp
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.WState(4).QASM()}, &created)
	post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "end"}, nil)
	export := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/api/simulation/" + created.ID + "/export?format=dot")
		if err != nil {
			t.Fatal(err)
		}
		return readAll(t, resp)
	}
	first := export()
	if strings.Count(first, "rank=same") < 2 {
		t.Fatalf("export has fewer than two rank groups:\n%s", first)
	}
	for i := 1; i < 10; i++ {
		if body := export(); body != first {
			t.Fatalf("export %d differs from the first:\n%s\nfirst:\n%s", i, body, first)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestNoisyEndpoint(t *testing.T) {
	srv := newTestServer(t)
	var resp noisyResponse
	post(t, srv, "/api/noisy", noisyRequest{
		Code:         algorithms.GHZ(3).QASM(),
		Depolarizing: 0.05,
		Trajectories: 300,
	}, &resp)
	if resp.Trajectories != 300 || resp.ErrorEvents == 0 {
		t.Fatalf("noisy result malformed: %+v", resp)
	}
	total := 0
	for _, n := range resp.Counts {
		total += n
	}
	if total != 300 {
		t.Fatalf("counts sum %d, want 300", total)
	}
	if resp.Counts["000"]+resp.Counts["111"] == 0 {
		t.Fatalf("legal outcomes absent: %v", resp.Counts)
	}
	// Validation paths.
	if r := post(t, srv, "/api/noisy", noisyRequest{Code: "bad"}, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad code accepted: %d", r.StatusCode)
	}
	if r := post(t, srv, "/api/noisy", noisyRequest{Code: algorithms.Bell().QASM(), BitFlip: 7}, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad probability accepted: %d", r.StatusCode)
	}
	if r := post(t, srv, "/api/noisy", noisyRequest{Code: algorithms.Bell().QASM(), Trajectories: 1 << 30}, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge trajectory count accepted: %d", r.StatusCode)
	}
}

func TestRefreshEndpoints(t *testing.T) {
	srv := newTestServer(t)
	var created newResp
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.BellMeasured().QASM()}, &created)
	// GET refresh re-renders the current frame without stepping.
	var r stepResponse
	get(t, srv, "/api/simulation/"+created.ID+"?style=modern", &r)
	if !r.AtStart || !strings.Contains(r.Frame.SVG, "<svg") {
		t.Fatalf("sim refresh wrong: %+v", r.AtStart)
	}
	// Step to the pending measurement; refresh must report it too.
	for i := 0; i < 3; i++ {
		post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "forward"}, &r)
	}
	get(t, srv, "/api/simulation/"+created.ID, &r)
	if r.Pending == nil {
		t.Fatal("refresh lost the pending dialog")
	}
	// Verification refresh.
	var vcreated newResp
	post(t, srv, "/api/verification", newVerifyRequest{
		Left:  algorithms.Bell().QASM(),
		Right: algorithms.Bell().QASM(),
	}, &vcreated)
	var vr verifyStepResponse
	get(t, srv, "/api/verification/"+vcreated.ID, &vr)
	if vr.Identity != "identity" {
		t.Fatalf("fresh verification identity = %q", vr.Identity)
	}
	// Unknown sessions 404 on refresh.
	if resp := get(t, srv, "/api/simulation/sim-404", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp := get(t, srv, "/api/verification/verify-404", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestDescribeEventVariants(t *testing.T) {
	srv := newTestServer(t)
	code := `
qreg q[2];
creg c[2];
x q[0];
measure q[0] -> c[0];
if (c==1) z q[1];
if (c==0) x q[1];
reset q[0];
barrier q;
`
	var created newResp
	post(t, srv, "/api/simulation", newSimRequest{Code: code}, &created)
	var events []string
	for {
		var r stepResponse
		post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "forward"}, &r)
		if r.AtEnd || r.Event == "" {
			events = append(events, r.Event)
			break
		}
		events = append(events, r.Event)
	}
	joined := strings.Join(events, "\n")
	for _, want := range []string{"applied x", "measured q[0] = 1", "applied conditional", "skipped", "reset q[0]", "barrier (breakpoint)"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing event %q in:\n%s", want, joined)
		}
	}
}

func TestFunctionalityEndpointEx14(t *testing.T) {
	srv := newTestServer(t)
	body := functionalityRequest{Code: algorithms.QFT(3).QASM()}
	var resp struct {
		Frame Frame `json:"frame"`
	}
	post(t, srv, "/api/functionality", body, &resp)
	if resp.Frame.Nodes != 21 {
		t.Fatalf("QFT3 functionality frame has %d nodes, want 21 (Ex. 14/Fig. 6)", resp.Frame.Nodes)
	}
	body.Inverse = true
	post(t, srv, "/api/functionality", body, &resp)
	if !strings.Contains(resp.Frame.Caption, "inverse") {
		t.Fatalf("inverse caption missing: %q", resp.Frame.Caption)
	}
	// Non-unitary circuits are rejected.
	r := post(t, srv, "/api/functionality", functionalityRequest{
		Code: "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\n",
	}, nil)
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-unitary accepted: %d", r.StatusCode)
	}
}
