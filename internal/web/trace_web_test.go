package web

// End-to-end tests of the tracing surface: the per-session Chrome
// trace endpoint on a scripted GHZ run, the one-shot debug bundle,
// and the scrape-freshness regression (stale LastStats snapshots).

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/obs"
)

// newTracedServer returns both the Server (for internals) and an
// httptest server over its handler, on a private registry.
func newTracedServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.Metrics = obs.NewRegistry()
	ws := NewServerWithConfig(cfg)
	t.Cleanup(ws.Close)
	srv := httptest.NewServer(ws.Handler())
	t.Cleanup(srv.Close)
	return ws, srv
}

type traceEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s"`
	Args  map[string]any `json:"args"`
}

// TestSessionTraceEndpointGHZ scripts a GHZ session — one step per
// gate, then a fast-forward — and validates the exported Chrome trace
// against the format the viewers require: valid JSON, a process_name
// record mapping the track to the session id, X events with ts/dur on
// tid 1, resolvable parent links, and the DD attributes riding on the
// step spans.
func TestSessionTraceEndpointGHZ(t *testing.T) {
	_, srv := newTracedServer(t)

	var created struct {
		ID string `json:"id"`
	}
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.GHZ(4).QASM()}, &created)
	var out map[string]interface{}
	post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "forward"}, &out)
	post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "forward"}, &out)
	post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "end"}, &out)

	resp, err := http.Get(srv.URL + "/debug/sessions/" + created.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("trace content type %q", ct)
	}
	var doc struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	spanByID := map[uint64]traceEvent{}
	var names []string
	sawProcessName := false
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" && ev.Args["name"] == created.ID {
				sawProcessName = true
			}
		case "I":
			// dropped-spans marker; none expected for this short run.
		case "X":
			if ev.TID != 1 || ev.PID != 1 {
				t.Fatalf("span %q on pid/tid %d/%d, want 1/1", ev.Name, ev.PID, ev.TID)
			}
			if ev.Dur == nil || *ev.Dur < 0 || ev.TS < 0 {
				t.Fatalf("span %q has invalid ts/dur", ev.Name)
			}
			id, ok := ev.Args["spanId"].(float64)
			if !ok {
				t.Fatalf("span %q lacks spanId", ev.Name)
			}
			spanByID[uint64(id)] = ev
			names = append(names, ev.Name)
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if !sawProcessName {
		t.Fatalf("no process_name record for session %s", created.ID)
	}
	// Every parent link must resolve to a recorded span.
	for _, ev := range spanByID {
		if p, ok := ev.Args["parentId"].(float64); ok {
			if _, ok := spanByID[uint64(p)]; !ok {
				t.Fatalf("span %q has dangling parent %v", ev.Name, p)
			}
		}
	}
	joined := strings.Join(names, "\n")
	for _, want := range []string{
		"POST /api/simulation/{id}/step", // request spans
		"step:gate",                      // session-op spans
		"fast-forward:end",               // the scripted fast-forward
		"dd:applygate",                   // engine child spans
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace lacks %q spans; got:\n%s", want, joined)
		}
	}
	// Step spans must carry the DD attributes.
	sawAttrs := false
	for _, ev := range spanByID {
		if strings.HasPrefix(ev.Name, "step:") {
			if _, ok := ev.Args["nodes_after"]; ok {
				sawAttrs = true
			}
		}
	}
	if !sawAttrs {
		t.Error("no step span carries nodes_after")
	}

	// Unknown sessions answer 404.
	resp2, err := http.Get(srv.URL + "/debug/sessions/sim-999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session trace status %d, want 404", resp2.StatusCode)
	}
}

func TestBundleHandler(t *testing.T) {
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
	if ct := rw.Header().Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("bundle content type %q", ct)
	}
	gz, err := gzip.NewReader(rw.Body)
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	tr := tar.NewReader(gz)
	members := map[string]string{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("tar read: %v", err)
		}
		body, _ := io.ReadAll(tr)
		members[hdr.Name] = string(body)
	}
	for _, want := range []string{
		"metrics.prom", "buildinfo.txt", "flags.txt", "goroutines.txt", "heap.pprof",
		"sessions/" + created.ID + ".trace.json",
	} {
		if _, ok := members[want]; !ok {
			t.Errorf("bundle lacks member %s", want)
		}
	}
	if !strings.Contains(members["metrics.prom"], "dd_nodes_live") {
		t.Error("bundle metrics.prom lacks the DD families")
	}
	var timeline struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(members["sessions/"+created.ID+".trace.json"]), &timeline); err != nil {
		t.Fatalf("session timeline is not valid JSON: %v", err)
	}
	if len(timeline.TraceEvents) == 0 {
		t.Error("session timeline is empty")
	}

	// Invalid cpu parameter answers 400.
	rw2 := httptest.NewRecorder()
	ws.BundleHandler().ServeHTTP(rw2, httptest.NewRequest("GET", "/debug/bundle?cpu=x", nil))
	if rw2.Code != http.StatusBadRequest {
		t.Fatalf("bad cpu param status %d, want 400", rw2.Code)
	}
}

// TestScrapeSeesFreshStatsOnIdleSession is the stale-snapshot
// regression test: a session whose package ran fewer operations than
// the publish stride (and no GC) since the last publish used to leave
// its LastStats frozen at session creation. A scrape of an idle
// session must now reflect the current engine state, because collect
// forces a fresh publish while holding the (uncontended) session lock.
func TestScrapeSeesFreshStatsOnIdleSession(t *testing.T) {
	ws, srv := newTracedServer(t)

	var created struct {
		ID string `json:"id"`
	}
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.GHZ(4).QASM()}, &created)
	var out map[string]interface{}
	// Two steps: far below the 32-op publish stride.
	post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "forward"}, &out)
	post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "forward"}, &out)

	h, err := ws.sims.reg.acquire(created.ID, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	wantLive := h.val.ddPkg().LiveNodes()
	h.release()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	got, ok := metricValue(string(body), "dd_nodes_live")
	if !ok {
		t.Fatalf("dd_nodes_live not found in scrape")
	}
	if got != wantLive {
		t.Fatalf("scrape reports dd_nodes_live=%d, engine has %d live nodes (stale snapshot)", got, wantLive)
	}
}

// metricValue extracts an integer-valued un-labeled series from a
// Prometheus text exposition.
func metricValue(body, name string) (int, bool) {
	re := regexp.MustCompile(fmt.Sprintf(`(?m)^%s ([0-9.e+]+)$`, regexp.QuoteMeta(name)))
	m := re.FindStringSubmatch(body)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return 0, false
	}
	return int(v), true
}
