package web

// Per-session resource accounting: ranking, truncation, and input
// validation on /debug/sessions/top, and its agreement with the other
// sinks of the session observer.

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"quantumdd/internal/algorithms"
)

func TestSessionsTopRankingAndFields(t *testing.T) {
	_, srv := newSpillTestServer(t, nil)

	// Two sessions with different work volumes: the busiest must rank
	// first, and its counters must be non-zero.
	var busy newResp
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.GHZ(4).QASM()}, &busy)
	for i := 0; i < 5; i++ {
		post(t, srv, "/api/simulation/"+busy.ID+"/step", stepRequest{Action: "forward"}, nil)
	}
	var idle newResp
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.Bell().QASM()}, &idle)

	var top topResponse
	resp := get(t, srv, "/debug/sessions/top", &top)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/sessions/top status %d", resp.StatusCode)
	}
	if top.Total != 2 || len(top.Sessions) != 2 {
		t.Fatalf("total=%d sessions=%d, want 2/2", top.Total, len(top.Sessions))
	}
	if top.Sessions[0].ID != busy.ID {
		t.Fatalf("busiest session not ranked first: %+v", top.Sessions)
	}
	// Session creation builds the session directly; only subsequent
	// requests pass the acquire choke point, so 5 steps => 5 requests.
	u := top.Sessions[0]
	if u.Kind != "sim" || u.DDOps == 0 || u.Requests < 5 || u.LiveNodes == 0 {
		t.Fatalf("usage fields implausible: %+v", u)
	}
}

func TestSessionsTopTruncation(t *testing.T) {
	_, srv := newSpillTestServer(t, nil)
	for i := 0; i < 4; i++ {
		post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.Bell().QASM()}, nil)
	}
	var top topResponse
	get(t, srv, "/debug/sessions/top?n=2", &top)
	if len(top.Sessions) != 2 {
		t.Fatalf("n=2 returned %d sessions", len(top.Sessions))
	}
	// Total reports the untruncated population so a dashboard can say
	// "showing 2 of 4".
	if top.Total != 4 {
		t.Fatalf("total = %d, want 4", top.Total)
	}
}

func TestSessionsTopBadN(t *testing.T) {
	_, srv := newSpillTestServer(t, nil)
	for _, bad := range []string{"0", "-3", "x", "1.5"} {
		resp := get(t, srv, "/debug/sessions/top?n="+bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("n=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestSessionsTopCapsN(t *testing.T) {
	_, srv := newSpillTestServer(t, nil)
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.Bell().QASM()}, nil)
	resp := get(t, srv, fmt.Sprintf("/debug/sessions/top?n=%d", maxTopN+1), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oversized n should clamp, not fail: status %d", resp.StatusCode)
	}
}

// TestSessionObserverSinksAgree drives one session and checks that the
// three sinks of its engine observer saw the same operations: the
// account's DD op meter, the dd_op_duration_seconds histogram counts
// summed over ops, and in the session's recorder the dd: child spans
// of single steps plus the dd_ops folded into each fast-forward span.
func TestSessionObserverSinksAgree(t *testing.T) {
	_, srv := newTracedServer(t)
	var created newResp
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.QFT(5).QASM()}, &created)

	ddOps := func() uint64 {
		var top topResponse
		get(t, srv, "/debug/sessions/top", &top)
		if len(top.Sessions) != 1 {
			t.Fatalf("%d sessions, want 1", len(top.Sessions))
		}
		return top.Sessions[0].DDOps
	}
	histCount := func() uint64 {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var sum uint64
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "dd_op_duration_seconds_count{") {
				n, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
				if err != nil {
					t.Fatalf("metrics line %q: %v", line, err)
				}
				sum += n
			}
		}
		return sum
	}
	// recorded returns the dd: spans and the dd_ops folded into
	// fast-forward spans.
	recorded := func() (spans, folded uint64) {
		var doc struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		get(t, srv, "/debug/sessions/"+created.ID+"/trace", &doc)
		for _, ev := range doc.TraceEvents {
			switch {
			case ev.Ph == "I":
				t.Fatalf("the ring dropped spans: %v", ev.Args)
			case ev.Ph != "X":
			case strings.HasPrefix(ev.Name, "dd:"):
				spans++
			case strings.HasPrefix(ev.Name, "fast-forward:"):
				n, ok := ev.Args["dd_ops"].(float64)
				if !ok {
					t.Fatalf("%s span without dd_ops: %v", ev.Name, ev.Args)
				}
				folded += uint64(n)
			}
		}
		return spans, folded
	}

	ops0, hist0 := ddOps(), histCount()
	spans0, folded0 := recorded()
	for _, action := range []string{"forward", "forward", "forward", "backward", "forward", "end", "start", "end"} {
		post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: action}, nil)
	}
	spans, folded := recorded()
	spans, folded = spans-spans0, folded-folded0
	ops, hist := ddOps()-ops0, histCount()-hist0
	if spans == 0 || folded == 0 || ops != hist || ops != spans+folded {
		t.Fatalf("observer sinks disagree over 8 steps: account %d ops, histograms %d, recorder %d dd: spans + %d folded", ops, hist, spans, folded)
	}
}
