package web

// Production-hardening tests: admission limits, body caps, session
// eviction (TTL + LRU), panic recovery, node budgets surfacing as
// partial-progress frames, deadline-bounded fast-forward, and the
// per-session locking that lets concurrent users step independently.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/verify"
)

// newHardenedServer spins up a test server with explicit limits and
// returns both the web.Server (for deterministic reaping) and the
// httptest wrapper.
func newHardenedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	ws := NewServerWithConfig(cfg)
	t.Cleanup(ws.Close)
	ts := httptest.NewServer(ws.Handler())
	t.Cleanup(ts.Close)
	return ws, ts
}

func decodeAPIError(t *testing.T, resp *http.Response) apiError {
	t.Helper()
	defer resp.Body.Close()
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error response is not the JSON envelope: %v", err)
	}
	return e
}

// blowUpCircuit builds the deterministic DD blow-up used by the dd
// budget tests, as a circuit: GHZ preamble, an H layer, then an
// all-pairs controlled-phase polynomial with distinct angles, whose
// state diagram grows exponentially with the qubit count.
func blowUpCircuit(n int) *qc.Circuit {
	c := qc.New(n, 0)
	c.H(n - 1)
	for q := n - 1; q > 0; q-- {
		c.CX(q, q-1)
	}
	for q := 0; q < n; q++ {
		c.H(q)
	}
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			theta := math.Pi / math.Sqrt(float64(k)+1.5)
			c.Phase(theta, j, qc.Control{Qubit: i})
			k++
		}
	}
	return c
}

func TestOversizedBodyRejected413(t *testing.T) {
	_, ts := newHardenedServer(t, Config{MaxBodyBytes: 128})
	big := bytes.Repeat([]byte("x"), 4096)
	body, _ := json.Marshal(newSimRequest{Code: string(big)})
	resp, err := http.Post(ts.URL+"/api/simulation", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	e := decodeAPIError(t, resp)
	if e.Code != codeBodyTooLarge {
		t.Fatalf("code %q, want %q", e.Code, codeBodyTooLarge)
	}
	if e.RequestID == "" {
		t.Fatal("error envelope lacks a request id")
	}
}

func TestOverLimitCircuitsRejected422(t *testing.T) {
	_, ts := newHardenedServer(t, Config{MaxQubits: 2, MaxOps: 3})
	wide := "qreg q[4];\nh q[0];\n"
	long := "qreg q[1];\nh q[0];\nh q[0];\nh q[0];\nh q[0];\n"
	for name, tc := range map[string]struct {
		path string
		body interface{}
	}{
		"sim/wide":           {"/api/simulation", newSimRequest{Code: wide}},
		"sim/long":           {"/api/simulation", newSimRequest{Code: long}},
		"noisy/wide":         {"/api/noisy", noisyRequest{Code: wide}},
		"functionality/wide": {"/api/functionality", functionalityRequest{Code: wide}},
		"verify/wide":        {"/api/verification", newVerifyRequest{Left: wide, Right: wide}},
	} {
		buf, _ := json.Marshal(tc.body)
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422", name, resp.StatusCode)
		}
		if e := decodeAPIError(t, resp); e.Code != codeCircuitTooLarge {
			t.Fatalf("%s: code %q, want %q", name, e.Code, codeCircuitTooLarge)
		}
	}
}

func TestIdleSessionReapedAnswers410(t *testing.T) {
	cfg := Config{Seed: 1, SessionTTL: time.Minute}
	ws, ts := newHardenedServer(t, cfg)
	var created newResp
	buf, _ := json.Marshal(newSimRequest{Code: "qreg q[1];\nh q[0];\n"})
	resp, err := http.Post(ts.URL+"/api/simulation", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Deterministic eviction: pretend the TTL elapsed.
	if n := ws.reapIdle(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("reaped %d sessions, want 1", n)
	}
	resp, err = http.Get(ts.URL + "/api/simulation/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("status %d, want 410", resp.StatusCode)
	}
	if e := decodeAPIError(t, resp); e.Code != codeSessionGone {
		t.Fatalf("code %q, want %q", e.Code, codeSessionGone)
	}
}

func TestLRUEvictionAnswers410(t *testing.T) {
	_, ts := newHardenedServer(t, Config{Seed: 1, MaxSessions: 1})
	create := func() string {
		buf, _ := json.Marshal(newSimRequest{Code: "qreg q[1];\nh q[0];\n"})
		resp, err := http.Post(ts.URL+"/api/simulation", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var created newResp
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		return created.ID
	}
	first := create()
	second := create() // evicts first (cap is 1)
	resp, err := http.Get(ts.URL + "/api/simulation/" + first)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted session status %d, want 410", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/api/simulation/" + second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live session status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestPanicRecoveryKeepsServerUp(t *testing.T) {
	var logBuf bytes.Buffer
	var mu sync.Mutex
	syncW := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logBuf.Write(p)
	})
	ws := NewServerWithConfig(Config{Logger: slog.New(slog.NewTextHandler(syncW, nil))})
	t.Cleanup(ws.Close)
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "fine")
	})
	ts := httptest.NewServer(ws.withMiddleware(mux))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic status %d, want 500", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("missing X-Request-ID header")
	}
	if e := decodeAPIError(t, resp); e.Code != codeInternal {
		t.Fatalf("code %q, want %q", e.Code, codeInternal)
	}
	// The process survived: the next request is served normally.
	resp, err = http.Get(ts.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	mu.Lock()
	logged := logBuf.String()
	mu.Unlock()
	if !strings.Contains(logged, "panic recovered") || !strings.Contains(logged, "handler exploded") {
		t.Fatalf("panic not logged:\n%s", logged)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestNodeBudgetSurfacesAsPartialFrame(t *testing.T) {
	_, ts := newHardenedServer(t, Config{Seed: 1, MaxNodes: 200})
	circ := blowUpCircuit(10)
	buf, _ := json.Marshal(newSimRequest{Code: circ.QASM()})
	resp, err := http.Post(ts.URL+"/api/simulation", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var created newResp
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	buf, _ = json.Marshal(stepRequest{Action: "end"})
	resp, err = http.Post(ts.URL+"/api/simulation/"+created.ID+"/step", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budget overrun must degrade gracefully, got status %d", resp.StatusCode)
	}
	var r stepResponse
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if r.Error == "" {
		t.Fatal("step response lacks the budget error")
	}
	if !strings.Contains(r.Frame.Caption, "diagram too large") {
		t.Fatalf("caption %q, want 'diagram too large'", r.Frame.Caption)
	}
	if r.Frame.Pos == 0 {
		t.Fatal("no partial progress recorded before the budget tripped")
	}
	if r.AtEnd {
		t.Fatal("session claims completion despite the aborted fast-forward")
	}
	// The session survives: refreshing renders the last good state.
	resp, err = http.Get(ts.URL + "/api/simulation/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh after budget abort: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestFunctionalityBudgetRejected422(t *testing.T) {
	const budget = 200
	_, ts := newHardenedServer(t, Config{MaxNodes: budget})
	circ := blowUpCircuit(10)
	buf, _ := json.Marshal(functionalityRequest{Code: circ.QASM()})
	resp, err := http.Post(ts.URL+"/api/functionality", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	e := decodeAPIError(t, resp)
	if e.Code != codeResourceExhausted {
		t.Fatalf("code %q, want %q", e.Code, codeResourceExhausted)
	}
	// A genuine blow-up aborts with the tables full of its own nodes,
	// not of garbage a retry could have reclaimed.
	var live, limit int
	i := strings.Index(e.Error, "diagram too large: ")
	if i < 0 {
		t.Fatalf("no budget report in %q", e.Error)
	}
	if _, err := fmt.Sscanf(e.Error[i:], "diagram too large: %d live nodes exceed the budget of %d", &live, &limit); err != nil {
		t.Fatalf("parse %q: %v", e.Error, err)
	}
	if limit != budget || live < budget/2 {
		t.Fatalf("aborted at %d live nodes of a %d budget, want at least half the cap", live, limit)
	}
}

// TestFunctionalityBudgetStaleGarbage is the regression test for a
// build that fits its budget but used to abort on garbage: kept to the
// end, the 210-gate random circuit's stale intermediates reach about
// 250k nodes for a 5461-node operator, so under DefaultConfig the
// budget tripped and the endpoint answered 422. The build now collects
// as the operator grows, and an abort's collection still frees what
// is left before the gate is applied again; the operator must be
// bit-identical to the unbudgeted build.
func TestFunctionalityBudgetStaleGarbage(t *testing.T) {
	circ := algorithms.RandomCircuit(7, 30, 3)
	cfg := DefaultConfig()
	_, ts := newHardenedServer(t, cfg)
	buf, _ := json.Marshal(functionalityRequest{Code: circ.QASM()})
	resp, err := http.Post(ts.URL+"/api/functionality", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %+v", resp.StatusCode, decodeAPIError(t, resp))
	}
	var got frameResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Frame.Nodes != 5461 {
		t.Fatalf("operator has %d nodes, want 5461", got.Frame.Nodes)
	}

	// Both builds apply each of the 210 gates once through the kernel:
	// a gate the budget retries after its abort's collection counts
	// once, not twice.
	build := func(maxNodes int) []byte {
		p := dd.New(circ.NQubits)
		p.SetMaxNodes(maxNodes)
		u, err := verify.Functionality(p, circ)
		if err != nil {
			t.Fatalf("budget %d: %v", maxNodes, err)
		}
		if ops := p.Stats().ApplyMOps; ops != 210 {
			t.Fatalf("budget %d: ApplyMOps = %d, want 210", maxNodes, ops)
		}
		return p.AppendMatrixBinary(nil, u)
	}
	if !bytes.Equal(build(cfg.MaxNodes), build(0)) {
		t.Fatal("budgeted operator differs from the unbudgeted build")
	}
}

func TestVerificationBudgetKeepsLastGoodDiagram(t *testing.T) {
	_, ts := newHardenedServer(t, Config{MaxNodes: 200})
	circ := blowUpCircuit(10)
	buf, _ := json.Marshal(newVerifyRequest{Left: circ.QASM(), Right: circ.QASM()})
	resp, err := http.Post(ts.URL+"/api/verification", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var created newResp
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Fast-forward the left side until the budget trips.
	var r verifyStepResponse
	for i := 0; i < 100; i++ {
		buf, _ = json.Marshal(verifyStepRequest{Side: "left", Action: "barrier"})
		resp, err = http.Post(ts.URL+"/api/verification/"+created.ID+"/step", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200 (graceful degradation)", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if r.Error != "" {
			break
		}
	}
	if r.Error == "" {
		t.Fatal("verification never hit the node budget")
	}
	if !strings.Contains(r.Frame.Caption, "diagram too large") {
		t.Fatalf("caption %q, want 'diagram too large'", r.Frame.Caption)
	}
	if !strings.Contains(r.Frame.SVG, "<svg") {
		t.Fatal("partial frame lacks the last good diagram")
	}
}

func TestRequestDeadlineBoundsFastForward(t *testing.T) {
	_, ts := newHardenedServer(t, Config{Seed: 1, RequestTimeout: time.Nanosecond})
	buf, _ := json.Marshal(newSimRequest{Code: "qreg q[2];\nh q[0];\ncx q[0], q[1];\n"})
	resp, err := http.Post(ts.URL+"/api/simulation", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var created newResp
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	buf, _ = json.Marshal(stepRequest{Action: "end"})
	resp, err = http.Post(ts.URL+"/api/simulation/"+created.ID+"/step", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 partial frame", resp.StatusCode)
	}
	var r stepResponse
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(r.Error, "interrupted") {
		t.Fatalf("error %q, want fast-forward interruption", r.Error)
	}
}

// TestParallelSessions drives many independent sessions concurrently
// (step, choose, refresh, export interleaved). Under -race this proves
// sessions do not share mutable state and no global lock serializes
// them (see also TestRegistryPerSessionLocking).
func TestParallelSessions(t *testing.T) {
	_, ts := newHardenedServer(t, DefaultConfig())
	const nSessions = 10
	code := "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
	var wg sync.WaitGroup
	errs := make(chan error, nSessions)
	for g := 0; g < nSessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fail := func(format string, a ...interface{}) {
				errs <- fmt.Errorf("session %d: "+format, append([]interface{}{g}, a...)...)
			}
			buf, _ := json.Marshal(newSimRequest{Code: code})
			resp, err := http.Post(ts.URL+"/api/simulation", "application/json", bytes.NewReader(buf))
			if err != nil {
				fail("create: %v", err)
				return
			}
			var created newResp
			if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
				fail("decode create: %v", err)
				return
			}
			resp.Body.Close()
			step := func(action string) *stepResponse {
				buf, _ := json.Marshal(stepRequest{Action: action})
				resp, err := http.Post(ts.URL+"/api/simulation/"+created.ID+"/step", "application/json", bytes.NewReader(buf))
				if err != nil {
					fail("step %s: %v", action, err)
					return nil
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail("step %s: status %d", action, resp.StatusCode)
					return nil
				}
				var r stepResponse
				if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
					fail("step %s decode: %v", action, err)
					return nil
				}
				return &r
			}
			if r := step("forward"); r == nil {
				return
			}
			if r := step("forward"); r == nil {
				return
			}
			// Refresh and export interleave with stepping.
			if resp, err := http.Get(ts.URL + "/api/simulation/" + created.ID); err != nil {
				fail("refresh: %v", err)
				return
			} else {
				resp.Body.Close()
			}
			if resp, err := http.Get(ts.URL + "/api/simulation/" + created.ID + "/export?format=dot"); err != nil {
				fail("export: %v", err)
				return
			} else {
				resp.Body.Close()
			}
			// Resolve the measurement dialog with an outcome derived from
			// the session index, then drain the circuit.
			r := step("forward")
			if r == nil {
				return
			}
			if r.Pending == nil {
				fail("expected pending measurement, got %+v", r)
				return
			}
			buf, _ = json.Marshal(chooseRequest{Outcome: g % 2})
			resp, err = http.Post(ts.URL+"/api/simulation/"+created.ID+"/choose", "application/json", bytes.NewReader(buf))
			if err != nil {
				fail("choose: %v", err)
				return
			}
			var chosen stepResponse
			if err := json.NewDecoder(resp.Body).Decode(&chosen); err != nil {
				fail("decode choose: %v", err)
				return
			}
			resp.Body.Close()
			final := step("end")
			if final == nil {
				return
			}
			if !final.AtEnd {
				fail("did not reach the end: %+v", final)
				return
			}
			want := g % 2
			if c := final.Frame.Classical; len(c) != 2 || c[0] != want || c[1] != want {
				fail("classical register %v, want [%d %d]", c, want, want)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestWriteJSONEncodeFailureLogged(t *testing.T) {
	var logBuf bytes.Buffer
	ws := NewServerWithConfig(Config{Logger: slog.New(slog.NewTextHandler(&logBuf, nil))})
	t.Cleanup(ws.Close)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/api/examples", nil)
	ws.writeJSON(rec, req, http.StatusOK, map[string]interface{}{"fn": func() {}})
	if !strings.Contains(logBuf.String(), "response encoding failed") {
		t.Fatalf("encoder failure not logged:\n%s", logBuf.String())
	}
}

func TestMalformedJSONRejected400(t *testing.T) {
	_, ts := newHardenedServer(t, DefaultConfig())
	resp, err := http.Post(ts.URL+"/api/simulation", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if e := decodeAPIError(t, resp); e.Code != codeBadRequest {
		t.Fatalf("code %q, want %q", e.Code, codeBadRequest)
	}
}
