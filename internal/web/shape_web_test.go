package web

// End-to-end tests of the diagram-structure observability surface:
// the per-session shape endpoint on scripted simulation and
// verification runs, the structural timeline riding in debug bundles,
// the dd_shape_* exposition after real work, and the node-blowup
// watchdog rule.

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
)

// shapeRespDoc mirrors the endpoint payload for decoding.
type shapeRespDoc struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Profile  dd.ShapeProfile `json:"profile"`
	Timeline *shapeTimeline  `json:"timeline"`
}

func getShape(t *testing.T, srv *httptest.Server, id string) (shapeRespDoc, int) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/debug/sessions/" + id + "/shape")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc shapeRespDoc
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("shape response is not valid JSON: %v", err)
		}
	}
	return doc, resp.StatusCode
}

func TestSessionShapeEndpointSim(t *testing.T) {
	ws, srv := newTracedServer(t)

	var created struct {
		ID string `json:"id"`
	}
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.GHZ(4).QASM()}, &created)
	var out map[string]interface{}
	post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "end"}, &out)

	doc, code := getShape(t, srv, created.ID)
	if code != http.StatusOK {
		t.Fatalf("GET shape status %d", code)
	}
	if doc.ID != created.ID || doc.Kind != "sim" {
		t.Fatalf("shape identity %q/%q, want %q/sim", doc.ID, doc.Kind, created.ID)
	}
	p := doc.Profile
	if p.Kind != "vector" || p.Levels != 4 || p.Seq == 0 {
		t.Fatalf("profile kind/levels/seq = %q/%d/%d", p.Kind, p.Levels, p.Seq)
	}
	if len(p.NodesPerLevel) != 4 || len(p.EdgesPerLevel) != 4 || len(p.UTLoad) != 4 {
		t.Fatalf("per-level slices sized %d/%d/%d, want 4", len(p.NodesPerLevel), len(p.EdgesPerLevel), len(p.UTLoad))
	}
	if p.Nodes <= 0 || p.Edges < p.Nodes || p.MaxLevelNodes <= 0 {
		t.Fatalf("degenerate counts: %+v", p)
	}
	if p.SharingFactor < 1 {
		t.Fatalf("sharing factor %v < 1", p.SharingFactor)
	}
	if p.IdentityFraction != 0 {
		t.Fatalf("vector profile has identity fraction %v", p.IdentityFraction)
	}
	sum := 0
	for _, c := range p.WeightHist {
		sum += c
	}
	if sum != p.Edges {
		t.Fatalf("weight histogram sums to %d, want %d edges", sum, p.Edges)
	}

	// A telemetry sweep after the (publishing) GET above records the
	// per-session structural series; the next GET carries the timeline.
	ws.sampleTelemetry(time.Now())
	doc, _ = getShape(t, srv, created.ID)
	if doc.Timeline == nil || len(doc.Timeline.Nodes) == 0 {
		t.Fatalf("no structural timeline after a telemetry sweep: %+v", doc.Timeline)
	}
	if doc.Timeline.Nodes[0].V != float64(p.Nodes) {
		t.Fatalf("timeline nodes %v, want %d", doc.Timeline.Nodes[0].V, p.Nodes)
	}

	if _, code := getShape(t, srv, "sim-999"); code != http.StatusNotFound {
		t.Fatalf("unknown session shape status %d, want 404", code)
	}
}

func TestSessionShapeEndpointVerify(t *testing.T) {
	_, srv := newTracedServer(t)

	var created struct {
		ID string `json:"id"`
	}
	post(t, srv, "/api/verification", newVerifyRequest{
		Left:  algorithms.QFT(3).QASM(),
		Right: algorithms.QFTCompiled(3).QASM(),
	}, &created)
	var out map[string]interface{}
	post(t, srv, "/api/verification/"+created.ID+"/step", verifyStepRequest{Side: "left", Action: "forward"}, &out)

	doc, code := getShape(t, srv, created.ID)
	if code != http.StatusOK {
		t.Fatalf("GET shape status %d", code)
	}
	if doc.Kind != "verify" || doc.Profile.Kind != "matrix" {
		t.Fatalf("kinds %q/%q, want verify/matrix", doc.Kind, doc.Profile.Kind)
	}
	if doc.Profile.Levels != 3 || doc.Profile.Nodes <= 0 {
		t.Fatalf("profile %+v", doc.Profile)
	}
	if f := doc.Profile.IdentityFraction; f < 0 || f > 1 {
		t.Fatalf("identity fraction %v outside [0,1]", f)
	}
}

// TestShapeExposition asserts the dd_shape_* families carry real
// values after a scripted session: the scrape-time collector profiles
// the idle session it finds.
func TestShapeExposition(t *testing.T) {
	_, srv := newTracedServer(t)

	var created struct {
		ID string `json:"id"`
	}
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.GHZ(4).QASM()}, &created)
	var out map[string]interface{}
	post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "end"}, &out)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for metric, min := range map[string]float64{
		`dd_shape_nodes{kind="vector"}`:          1,
		`dd_shape_edges{kind="vector"}`:          1,
		`dd_shape_profiles{kind="vector"}`:       1,
		`dd_shape_sharing_factor{kind="vector"}`: 1,
	} {
		v, ok := labeledMetricValue(string(body), metric)
		if !ok {
			t.Errorf("scrape lacks %s", metric)
			continue
		}
		if v < min {
			t.Errorf("%s = %v, want >= %v", metric, v, min)
		}
	}
	// The matrix-side families exist (zero-valued) with no verify load.
	if _, ok := labeledMetricValue(string(body), `dd_shape_nodes{kind="matrix"}`); !ok {
		t.Error("scrape lacks the matrix-side shape families")
	}
	if _, ok := labeledMetricValue(string(body), "dd_shape_identity_fraction"); !ok {
		t.Error("scrape lacks dd_shape_identity_fraction")
	}
}

// labeledMetricValue extracts one series (labels included verbatim in
// name) from a Prometheus text exposition.
func labeledMetricValue(body, series string) (float64, bool) {
	re := regexp.MustCompile(fmt.Sprintf(`(?m)^%s ([0-9.e+-]+)$`, regexp.QuoteMeta(series)))
	m := re.FindStringSubmatch(body)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// TestWatchdogNodeBlowupRule drives the aggregate shape gauges through
// the three regimes the rule distinguishes: growth under the absolute
// floor (never fires), growth past the floor but under the factor
// (never fires), and super-factor growth within the window (fires).
func TestWatchdogNodeBlowupRule(t *testing.T) {
	// Each scenario runs on a fresh server: the rule's growth window is
	// the whole SLO window, so earlier samples would contaminate it.
	run := func(t *testing.T, occupancies ...int) []string {
		t.Helper()
		ws, _ := newTracedServer(t)
		now := time.Now()
		for _, maxLevel := range occupancies {
			ws.metrics.shape.Record(&dd.ShapeProfile{
				Kind: "vector", Seq: 1, Nodes: 4 * maxLevel,
				MaxLevelNodes: maxLevel, WidestLevel: 7,
			}, nil, 1, 0)
			ws.tele.store.SampleOnce(now)
			ws.tele.dog.Evaluate(now)
			now = now.Add(ws.cfg.SampleInterval)
		}
		var rules []string
		for _, ev := range ws.WatchdogEvents() {
			rules = append(rules, ev.Rule)
		}
		return rules
	}

	// Under the floor: a 64 → 256 quadrupling is noise.
	if evs := run(t, 64, 256); len(evs) != 0 {
		t.Fatalf("blowup fired under the occupancy floor: %v", evs)
	}
	// Past the floor but doubling only: legitimate growth.
	if evs := run(t, 600, 1200); len(evs) != 0 {
		t.Fatalf("blowup fired on sub-factor growth: %v", evs)
	}
	// 600 → 4800 within the window crosses the factor.
	evs := run(t, 600, 1200, 4800)
	if len(evs) != 1 || evs[0] != "node_blowup" {
		t.Fatalf("watchdog events after blowup: %v", evs)
	}
}

// TestBundleShapeTimelineMember asserts shape_timeline.json rides in
// debug bundles with the live session's profile in it.
func TestBundleShapeTimelineMember(t *testing.T) {
	ws, srv := newTracedServer(t)

	var created struct {
		ID string `json:"id"`
	}
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.Bell().QASM()}, &created)
	var out map[string]interface{}
	post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "end"}, &out)

	req := httptest.NewRequest("GET", "/debug/bundle?cpu=0", nil)
	rw := httptest.NewRecorder()
	ws.BundleHandler().ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("bundle status %d", rw.Code)
	}
	gz, err := gzip.NewReader(rw.Body)
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	tr := tar.NewReader(gz)
	var timeline string
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("tar read: %v", err)
		}
		if hdr.Name == "shape_timeline.json" {
			body, _ := io.ReadAll(tr)
			timeline = string(body)
		}
	}
	if timeline == "" {
		t.Fatal("bundle lacks shape_timeline.json")
	}
	var entries []shapeBundleEntry
	if err := json.Unmarshal([]byte(timeline), &entries); err != nil {
		t.Fatalf("shape_timeline.json is not valid JSON: %v", err)
	}
	if len(entries) != 1 || entries[0].ID != created.ID || entries[0].Kind != "sim" {
		t.Fatalf("timeline entries %+v, want the one live session", entries)
	}
	// The Bell session is idle and has never been profiled — the
	// snapshot must have profiled it.
	if entries[0].Profile == nil || entries[0].Profile.Nodes <= 0 {
		t.Fatalf("timeline entry lacks a profile: %+v", entries[0])
	}
}

// liveSize reports the node count of session id's diagram, read under
// its lock. Taking the lock also waits out the handler of the request
// just answered, which may still hold it, so a sweep that follows sees
// the session idle.
func liveSize(t *testing.T, ws *Server, id string) int {
	t.Helper()
	for _, kind := range ws.kinds() {
		h, err := kind.reg.acquire(id, time.Now())
		if errors.Is(err, errSessionUnknown) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		defer h.release()
		switch s := h.val.(type) {
		case *simSession:
			return dd.SizeV(s.sim.State())
		case *verifySession:
			return dd.SizeM(s.m.X())
		}
	}
	t.Fatalf("no session %s", id)
	return 0
}

// TestShapeReadersSeeCurrentState steps a sim and a verify session
// after a first scrape has profiled them. Each reader of the profile —
// the scrape, the top endpoint and the telemetry tick — must then show
// the diagram as it stands, not the profile of the first scrape.
func TestShapeReadersSeeCurrentState(t *testing.T) {
	for _, tc := range []struct {
		kind, path   string
		create, step any
		diagram      string
	}{
		{"sim", "/api/simulation", newSimRequest{Code: algorithms.GHZ(8).QASM()},
			stepRequest{Action: "forward"}, "vector"},
		{"verify", "/api/verification", newVerifyRequest{
			Left: algorithms.QFT(4).QASM(), Right: algorithms.QFTCompiled(4).QASM(),
		}, verifyStepRequest{Side: "left", Action: "forward"}, "matrix"},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			ws, srv := newTracedServer(t)
			var created struct {
				ID string `json:"id"`
			}
			post(t, srv, tc.path, tc.create, &created)
			step := func(k int) int {
				t.Helper()
				for i := 0; i < k; i++ {
					if resp := post(t, srv, tc.path+"/"+created.ID+"/step", tc.step, nil); resp.StatusCode != http.StatusOK {
						t.Fatalf("step status %d", resp.StatusCode)
					}
				}
				return liveSize(t, ws, created.ID)
			}
			first := liveSize(t, ws, created.ID)
			scrape(t, srv)

			want := step(5)
			if want == first {
				t.Fatalf("5 steps left the diagram at %d nodes; the test needs it to change", want)
			}
			series := `dd_shape_nodes{kind="` + tc.diagram + `"}`
			if got, ok := labeledMetricValue(scrape(t, srv), series); !ok || got != float64(want) {
				t.Errorf("scrape: %s = %v, want the current %d", series, got, want)
			}

			want = step(1)
			var top topResponse
			get(t, srv, "/debug/sessions/top", &top)
			if len(top.Sessions) != 1 || top.Sessions[0].ShapeNodes != want {
				t.Errorf("top: %+v, want shapeNodes %d", top.Sessions, want)
			}

			want = step(1)
			ws.sampleTelemetry(time.Now())
			if got := ws.tele.store.LatestValue("session_shape_nodes", sessionLabels(created.ID), -1); got != float64(want) {
				t.Errorf("tick: session_shape_nodes = %v, want %d", got, want)
			}
		})
	}
}

// TestShapeSweepsSkipIdleSessions: a sweep profiles a session only when
// it has served a request since its last profile, so sweeps over an
// idle session take no walks and leave dd_shape_profiles unchanged.
func TestShapeSweepsSkipIdleSessions(t *testing.T) {
	ws, srv := newTracedServer(t)
	var created struct {
		ID string `json:"id"`
	}
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.GHZ(4).QASM()}, &created)
	post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "end"}, nil)
	liveSize(t, ws, created.ID)
	profiles := func() float64 {
		t.Helper()
		v, ok := labeledMetricValue(scrape(t, srv), `dd_shape_profiles{kind="vector"}`)
		if !ok {
			t.Fatal("scrape lacks dd_shape_profiles")
		}
		return v
	}
	first := profiles()
	ws.sampleTelemetry(time.Now())
	if again := profiles(); again != first {
		t.Fatalf("sweeps of an idle session took profiles: %v, then %v", first, again)
	}
	post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "backward"}, nil)
	liveSize(t, ws, created.ID)
	if after := profiles(); after != first+1 {
		t.Fatalf("after one request dd_shape_profiles = %v, want %v", after, first+1)
	}
}

// TestShapeSweepSkipsLockedSession: a sweep that finds a session's lock
// held must not walk its diagram, which a request may be rewriting; the
// readers show the last published profile instead.
func TestShapeSweepSkipsLockedSession(t *testing.T) {
	ws, srv := newTracedServer(t)
	var created struct {
		ID string `json:"id"`
	}
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.GHZ(6).QASM()}, &created)
	scrape(t, srv)
	post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "end"}, nil)

	h, err := ws.sims.reg.acquire(created.ID, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	p := h.val.ddPkg()
	last := p.LastShape()
	if last == nil {
		h.release()
		t.Fatal("the first scrape published no profile")
	}
	now := time.Now()
	ws.sampleTelemetry(now)
	usage := ws.sessionUsageSnapshot()
	bundle := ws.shapeTimelineSnapshot(now)
	walked := p.LastShape() != last
	h.release()
	if walked {
		t.Fatal("a sweep walked a session whose lock was held")
	}
	if len(usage) != 1 || usage[0].ShapeSeq != last.Seq {
		t.Errorf("top rows %+v, want the last profile (seq %d)", usage, last.Seq)
	}
	if len(bundle) != 1 || bundle[0].Profile != last {
		t.Errorf("bundle entries %+v, want the last profile", bundle)
	}
	scrape(t, srv)
	if sp := p.LastShape(); sp == last || sp.Nodes == last.Nodes {
		t.Fatalf("after release the sweep kept the stale profile: %+v", sp)
	}
}
