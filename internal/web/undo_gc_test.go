package web

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/verify"
)

// undoWalk drives one session of either tab through the handler with
// the request bodies step, which applies one gate, and back, which
// undoes one.
type undoWalk struct {
	t          *testing.T
	do         func(method, path string, body any) (int, []byte)
	path       string
	step, back any // request bodies
}

func (w undoWalk) post(body any) {
	w.t.Helper()
	if code, resp := w.do("POST", w.path+"/step", body); code != http.StatusOK {
		w.t.Fatalf("step: status %d: %s", code, resp)
	}
}

// get returns the session's response to GET and its frame member.
func (w undoWalk) get() (body, frame []byte) {
	w.t.Helper()
	code, body := w.do("GET", w.path, nil)
	var r struct {
		Frame json.RawMessage `json:"frame"`
	}
	if err := json.Unmarshal(body, &r); code != http.StatusOK || err != nil {
		w.t.Fatalf("GET: status %d (%v): %s", code, err, body)
	}
	return body, r.Frame
}

// frame returns the session's frame with its engine counters blanked.
func (w undoWalk) frame() []byte {
	w.t.Helper()
	_, f := w.get()
	return blankEngine(f)
}

// run steps forward n times (one gate each), recording the frame after
// each step, then checks that the package collected, and that k steps
// back and k steps forward again draw the recorded frames. It returns
// the response to GET at the end of the forward walk.
func (w undoWalk) run(n, k int) []byte {
	w.t.Helper()
	frames := [][]byte{w.frame()}
	for range n {
		w.post(w.step)
		frames = append(frames, w.frame())
	}
	last, f := w.get()
	var end Frame
	if err := json.Unmarshal(f, &end); err != nil || end.Engine == nil {
		w.t.Fatalf("frame without engine counters (%v): %s", err, f)
	}
	if end.Engine.GCRuns == 0 {
		w.t.Fatal("the session never collected; the walk shows nothing")
	}
	check := func(pos int, what string) {
		w.t.Helper()
		if got := w.frame(); !bytes.Equal(got, frames[pos]) {
			w.t.Fatalf("%s to step %d: frame differs outside its engine counters:\ngot  %s\nwant %s", what, pos, got, frames[pos])
		}
	}
	for i := 1; i <= k; i++ {
		w.post(w.back)
		check(n-i, "back")
	}
	for i := k - 1; i >= 0; i-- {
		w.post(w.step)
		check(n-i, "forward again")
	}
	return last
}

// TestUndoAcrossCollection steps both tabs over circuits large enough
// for their packages to collect mid-walk, then undoes and redoes the
// last steps: every undo snapshot is referenced, so the frames drawn
// after the collections equal those drawn before them.
func TestUndoAcrossCollection(t *testing.T) {
	_, do := closeTestServer(t, "")

	t.Run("simulation", func(t *testing.T) {
		circ := algorithms.RandomCircuit(8, 40, 11)
		code, body := do("POST", "/api/simulation", newSimRequest{Code: circ.QASM()})
		if code != http.StatusOK {
			t.Fatalf("create: status %d: %s", code, body)
		}
		var created newResp
		if err := json.Unmarshal(body, &created); err != nil {
			t.Fatal(err)
		}
		w := undoWalk{t: t, do: do, path: "/api/simulation/" + created.ID,
			step: stepRequest{Action: "forward"}, back: stepRequest{Action: "backward"}}
		w.run(circ.NumGates(), 10)
	})

	t.Run("verification", func(t *testing.T) {
		g, g2 := algorithms.QFT(7), algorithms.QFTCompiled(7)
		want, err := verify.CheckOn(dd.New(7), g, g2, verify.Sequential)
		if err != nil {
			t.Fatal(err)
		}
		code, body := do("POST", "/api/verification", newVerifyRequest{Left: g.QASM(), Right: g2.QASM()})
		if code != http.StatusOK {
			t.Fatalf("create: status %d: %s", code, body)
		}
		var created newResp
		if err := json.Unmarshal(body, &created); err != nil {
			t.Fatal(err)
		}
		w := undoWalk{t: t, do: do, path: "/api/verification/" + created.ID,
			step: verifyStepRequest{Side: "left", Action: "forward"}, back: verifyStepRequest{Action: "backward"}}
		w.run(g.NumGates(), 0)
		w.step = verifyStepRequest{Side: "right", Action: "forward"}
		var end verifyStepResponse
		if err := json.Unmarshal(w.run(g2.NumGates(), 10), &end); err != nil {
			t.Fatal(err)
		}
		if equivalent := end.Identity != "not-identity"; equivalent != want.Equivalent ||
			(end.Identity == "identity-up-to-phase") != want.UpToGlobalPhase {
			t.Fatalf("tab ends at %q, CheckOn says equivalent=%v up to phase=%v", end.Identity, want.Equivalent, want.UpToGlobalPhase)
		}
	})
}
