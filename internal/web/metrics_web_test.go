package web

// End-to-end test of the /metrics endpoint: run a scripted simulation
// session against a real server, scrape the endpoint, and check both
// the family inventory (golden file) and the values the scrape must
// reflect. The golden file pins the public metric surface — adding or
// renaming a family is an intentional, reviewed change.

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// newMetricsTestServer builds a server with a private registry so
// concurrent tests sharing obs.Default cannot pollute the scrape.
func newMetricsTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.Metrics = obs.NewRegistry()
	ws := NewServerWithConfig(cfg)
	t.Cleanup(ws.Close)
	srv := httptest.NewServer(ws.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func scrape(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpointAfterScriptedSession(t *testing.T) {
	srv := newMetricsTestServer(t)

	// Scripted session: create a Bell simulation and run it to the end
	// so the engine executes real gate applications under the tracer.
	var created struct {
		ID string `json:"id"`
	}
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.Bell().QASM()}, &created)
	var out map[string]interface{}
	post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "end"}, &out)

	body := scrape(t, srv)

	// The family inventory is the public contract; compare against the
	// golden file so surface changes are deliberate.
	var families []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, line)
		}
	}
	got := strings.Join(families, "\n") + "\n"
	goldenPath := filepath.Join("testdata", "metrics_families.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric family inventory changed:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Values the scrape must reflect after one session ran to the end.
	for _, series := range []string{
		`sessions_active{kind="sim"} 1`,
		`sessions_created_total{kind="sim"} 1`,
		`dd_op_duration_seconds_count{op="applygate"}`,
		`dd_compute_table_lookups{table="apply_v"}`,
		`dd_gate_cache_hits`,
		`dd_compute_table_hit_ratio`,
		`dd_nodes_live`,
		`dd_complex_table_values`,
		`http_requests_total{code="2xx"} 2`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("scrape missing %q", series)
		}
	}

	// The engine actually traced work: gate applications now run
	// through the specialized kernel, so its histogram saw at least one
	// top-level operation during the fast-forward.
	if strings.Contains(body, `dd_op_duration_seconds_count{op="applygate"} 0`) {
		t.Error("applygate histogram recorded no operations after a full run")
	}
	// Live-node gauge reflects the session's published snapshot.
	if strings.Contains(body, "\ndd_nodes_live 0\n") {
		t.Error("dd_nodes_live is zero with a live session holding state")
	}
}

func TestMetricsRequestCountersAccumulate(t *testing.T) {
	srv := newMetricsTestServer(t)

	// A request that fails client-side must land in the 4xx class.
	resp, err := http.Post(srv.URL+"/api/simulation", "application/json",
		strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request status %d", resp.StatusCode)
	}

	body := scrape(t, srv)
	if !strings.Contains(body, `http_requests_total{code="4xx"} 1`) {
		t.Errorf("expected one 4xx request counted, scrape:\n%s", grepFamily(body, "http_requests_total"))
	}
	// The scrape itself is still in flight while the gauge is read.
	if !strings.Contains(body, "http_requests_in_flight 1") {
		t.Errorf("expected in-flight gauge of 1 during scrape:\n%s", grepFamily(body, "http_requests_in_flight"))
	}
}

// grepFamily returns the lines of one metric family for error output.
func grepFamily(body, name string) string {
	var sb strings.Builder
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, name) {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
