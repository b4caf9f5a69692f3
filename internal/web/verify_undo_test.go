package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"testing"

	"quantumdd/internal/algorithms"
)

// TestVerifyStepBackRestoresResponse requires a step back to return the
// verification tab to where it stood: after a single step or a barrier
// run and as many steps back, the GET response, positions included,
// equals the one from before the step, outside its engine counters and
// its peak, a high-water mark that a step back keeps. On
// the QFT(5)/QFTCompiled(5) pair the compiled side has barriers, so the
// walk steps from a barrier, where the miter skips ahead of the gate.
var peakNodes = regexp.MustCompile(`"peakNodes":[0-9]+`)

func TestVerifyStepBackRestoresResponse(t *testing.T) {
	_, do := closeTestServer(t, "")
	g, g2 := algorithms.QFT(5), algorithms.QFTCompiled(5)
	code, body := do("POST", "/api/verification", newVerifyRequest{Left: g.QASM(), Right: g2.QASM()})
	if code != http.StatusOK {
		t.Fatalf("create: status %d: %s", code, body)
	}
	var created newResp
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	path := "/api/verification/" + created.ID
	state := func() []byte {
		t.Helper()
		code, body := do("GET", path, nil)
		if code != http.StatusOK {
			t.Fatalf("GET: status %d: %s", code, body)
		}
		return peakNodes.ReplaceAll(blankEngine(body), []byte(`"peakNodes":0`))
	}
	step := func(side, action string) verifyStepResponse {
		t.Helper()
		code, body := do("POST", path+"/step", verifyStepRequest{Side: side, Action: action})
		var resp verifyStepResponse
		if err := json.Unmarshal(body, &resp); code != http.StatusOK || err != nil || resp.Error != "" {
			t.Fatalf("%s %s: status %d (%v): %s", side, action, code, err, body)
		}
		return resp
	}
	// undo runs action on side, steps back over every gate it applied
	// and requires the response from before it; then it runs the
	// action again to move on. It reports false, having checked
	// nothing, once the action applies no gate.
	undo := func(side, action string) bool {
		t.Helper()
		before := state()
		resp := step(side, action)
		n := 0
		switch {
		case resp.Applied == "":
		case action == "barrier":
			if _, err := fmt.Sscanf(resp.Applied, "%d gate(s)", &n); err != nil {
				t.Fatalf("barrier run answered %q", resp.Applied)
			}
		default:
			n = 1
		}
		if n == 0 {
			return false // the side is consumed
		}
		for range n {
			step("", "backward")
		}
		if after := state(); !bytes.Equal(after, before) {
			i := 0
			for i < len(after) && i < len(before) && after[i] == before[i] {
				i++
			}
			t.Fatalf("%s %s and %d step(s) back: response differs from the one before it at byte %d:\ngot  …%.200s\nwant …%.200s", side, action, n, i, after[max(0, i-60):], before[max(0, i-60):])
		}
		step(side, action)
		return true
	}
	barriers := 0
	for undo("right", "barrier") {
		barriers++
	}
	if barriers < 2 {
		t.Fatalf("%d barrier runs; the walk crosses no barrier", barriers)
	}
	// Undo everything, then walk the compiled side one gate at a time.
	for resp := step("", "backward"); resp.Applied != ""; resp = step("", "backward") {
	}
	for undo("right", "forward") {
	}
}
