package web

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/obs"
	"quantumdd/internal/obs/trace"
	"quantumdd/internal/qc"
)

// TestFastForwardMatchesSingleSteps pins the response of the end and
// break fast-forwards, which describe only the last event they apply:
// its bytes, caption included, must equal those of the forward step
// that applies the same op in a twin session stepped one op at a time.
func TestFastForwardMatchesSingleSteps(t *testing.T) {
	c, err := qc.CompileNative(algorithms.QFT(4), qc.CompileOptions{EmitBarriers: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Gate(qc.P, []float64{-0.3}, 2, qc.Control{Qubit: 0, Neg: true})
	c.SwapGate(0, 3)
	code, err := json.Marshal(newSimRequest{Code: c.QASM()})
	if err != nil {
		t.Fatal(err)
	}
	ws := NewServerWithConfig(DefaultConfig())
	t.Cleanup(ws.Close)
	h := ws.Handler()
	serve := func(path, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	session := func() string {
		var created newResp
		if err := json.Unmarshal(serve("/api/simulation?style=colored", string(code)), &created); err != nil {
			t.Fatal(err)
		}
		return "/api/simulation/" + created.ID + "/step?style=colored"
	}
	for _, action := range []string{"break", "end"} {
		fast := serve(session(), `{"action":"`+action+`"}`)
		var want stepResponse
		if err := json.Unmarshal(fast, &want); err != nil {
			t.Fatal(err)
		}
		if want.Event == "" {
			t.Fatalf("%s: no caption", action)
		}
		twin := session()
		for {
			body := serve(twin, `{"action":"forward"}`)
			var st stepResponse
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if st.Frame.Pos == want.Frame.Pos {
				if !bytes.Equal(body, fast) {
					t.Fatalf("%s response differs from the single step's:\n%s\n%s", action, fast, body)
				}
				break
			}
			if st.AtEnd {
				t.Fatalf("%s stopped at op %d, which single steps never reached", action, want.Frame.Pos)
			}
		}
	}
}

// grover7Lowered is the lowered Grover(7) source the batch benchmark
// runs to its end.
func grover7Lowered(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/grover7_lowered.qasm")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestFastForwardIsOneSpan runs a fast-forward in each tab, the
// simulation's run-to-end of lowered Grover(7) and the verification
// tab's barrier run, and requires the recorder to have gained the
// request span and one folded fast-forward span under it, and to have
// dropped nothing. The span's ops must equal the gates the run applied
// and its dd_ops and dd_us the DD operations and time the session's
// account gained; its node counts must equal walks of the diagram, and
// its apply_ct_hits the hits the package's vector and matrix kernels
// gained, which on the verification tab's run are matrix hits and must
// be some.
func TestFastForwardIsOneSpan(t *testing.T) {
	ws, _ := newTracedServer(t)
	h := ws.Handler()
	serve := func(path string, body any, out any) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(buf)))
		if err := decodeBody(rec, out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	// run serves the fast-forward step of session id on the kind's
	// path, decodes its response into out and checks the spans it
	// left; nodes walks the session's diagram and pkg finds its
	// package. It returns the span's ops and apply_ct_hits.
	run := func(kind *sessionKind, path, id string, step, out any, nodes func(session) int, pkg func(session) *dd.Pkg) (int, int64) {
		t.Helper()
		hd, err := kind.reg.acquire(id, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		sess := hd.val
		hd.release()
		rec, acct := sess.base().rec, sess.base().acct
		spans0, _ := rec.Snapshot()
		applyHits := func() uint64 { st := pkg(sess).Stats(); return st.ApplyCTHits + st.ApplyMCTHits }
		before, ops0, nanos0, hits0 := nodes(sess), acct.ddOps.Load(), acct.ddNanos.Load(), applyHits()
		serve(path+"/"+id+"/step", step, out)
		spans, dropped := rec.Snapshot()
		if dropped != 0 {
			t.Fatalf("the recorder dropped %d spans", dropped)
		}
		spans = spans[len(spans0):]
		if len(spans) != 2 || !strings.HasPrefix(spans[0].Name, "fast-forward:") ||
			spans[1].Name != "POST "+path+"/{id}/step" || spans[0].Parent != spans[1].ID {
			var names []string
			for _, sp := range spans {
				names = append(names, sp.Name)
			}
			t.Fatalf("the fast-forward left spans %q, want one fast-forward span under its request span", names)
		}
		attrs := map[string]int64{}
		for _, a := range spans[0].Attrs() {
			attrs[a.Key] = a.Value
		}
		want := map[string]int64{
			"nodes_before":  int64(before),
			"nodes_after":   int64(nodes(sess)),
			"dd_ops":        int64(acct.ddOps.Load() - ops0),
			"dd_us":         (acct.ddNanos.Load() - nanos0) / 1e3,
			"apply_ct_hits": int64(applyHits() - hits0),
		}
		for key, v := range want {
			if got, ok := attrs[key]; !ok || got != v {
				t.Errorf("%s: %s = %d (present %v), want %d", spans[0].Name, key, got, ok, v)
			}
		}
		for _, key := range []string{"ops", "ct_hits"} {
			if _, ok := attrs[key]; !ok {
				t.Errorf("%s lacks %s: %v", spans[0].Name, key, attrs)
			}
		}
		if want["dd_ops"] == 0 {
			t.Fatalf("%s folded no DD operation; the check shows nothing", spans[0].Name)
		}
		return int(attrs["ops"]), attrs["apply_ct_hits"]
	}

	var created newResp
	serve("/api/simulation", newSimRequest{Code: grover7Lowered(t)}, &created)
	var end stepResponse
	ops, _ := run(&ws.sims, "/api/simulation", created.ID, stepRequest{Action: "end"}, &end,
		func(s session) int { return dd.SizeV(s.(*simSession).sim.State()) },
		func(s session) *dd.Pkg { return s.(*simSession).sim.Pkg() })
	if !end.AtEnd || ops != created.Frame.Total {
		t.Errorf("run-to-end span says %d ops of %d (at end: %v)", ops, created.Frame.Total, end.AtEnd)
	}

	// The second barrier run starts at a barrier, which it skips.
	serve("/api/verification", newVerifyRequest{Left: algorithms.QFT(5).QASM(), Right: algorithms.QFTCompiled(5).QASM()}, &created)
	step := verifyStepRequest{Side: "right", Action: "barrier"}
	var barrier verifyStepResponse
	serve("/api/verification/"+created.ID+"/step", step, &barrier)
	ops, hits := run(&ws.verifies, "/api/verification", created.ID, step, &barrier,
		func(s session) int { return dd.SizeM(s.(*verifySession).m.X()) },
		func(s session) *dd.Pkg { return s.(*verifySession).m.Pkg() })
	if applied := fmt.Sprintf("%d gate(s)", ops); ops == 0 || barrier.Applied != applied {
		t.Errorf("barrier run span says %d ops, the response %q", ops, barrier.Applied)
	}
	if hits == 0 {
		t.Error("the barrier run's span counts no matrix-apply hits")
	}
}

// TestVerifyStepSpanSizes checks the node counts of the verification
// tab's step spans, which the miter keeps instead of walking the
// product again: each span's nodes_before must equal a walk of the
// product before the step and, unless an undo came between, the
// previous span's nodes_after.
func TestVerifyStepSpanSizes(t *testing.T) {
	v, err := newVerifySession(algorithms.QFT(5), algorithms.QFTCompiled(5), "", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder("v", 1<<12)
	ctx := trace.With(context.Background(), rec)
	var walks []int64
	undone := map[int]bool{} // spans with an undo before them
	for step, exhausted := 0, 0; exhausted < 2; step++ {
		side := []string{"left", "right", "right"}[step%3]
		walk := int64(dd.SizeM(v.m.X()))
		op, err := v.stepSide(ctx, side)
		if err != nil {
			t.Fatal(err)
		}
		if op == nil {
			exhausted++
			continue
		}
		walks = append(walks, walk)
		if step%7 == 6 {
			v.stepBack()
			undone[len(walks)] = true
		}
	}
	spans, dropped := rec.Snapshot()
	if dropped != 0 || len(spans) != len(walks) {
		t.Fatalf("%d spans (%d dropped) for %d steps", len(spans), dropped, len(walks))
	}
	attr := func(sp trace.Span, key string) int64 {
		for _, a := range sp.Attrs() {
			if a.Key == key {
				return a.Value
			}
		}
		t.Fatalf("%s lacks %s", sp.Name, key)
		return 0
	}
	for i, sp := range spans {
		before := attr(sp, "nodes_before")
		if before != walks[i] {
			t.Fatalf("step %d (%s): nodes_before %d, a walk of the product %d", i, sp.Name, before, walks[i])
		}
		if prev := i - 1; prev >= 0 && !undone[i] {
			if after := attr(spans[prev], "nodes_after"); after != before {
				t.Fatalf("step %d (%s): nodes_before %d, the previous step's nodes_after %d", i, sp.Name, before, after)
			}
		}
	}
	if len(undone) == 0 {
		t.Fatal("the walk undid nothing")
	}
}

// TestFastForwardAllocBytes guards the heap bytes per gate of a served
// run-to-end of lowered Grover(7), the batch benchmark's largest
// circuit, with the session's flight recorder on. Only the handler
// call is measured, over five runs of a warm session after rewinds, so
// the frame and the response count and the engine's table growth does
// not. The runs take 56 bytes per gate; the bound is the measured
// value plus about 20 %.
func TestFastForwardAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap byte counts are not meaningful under the race detector")
	}
	const maxBytes = 67
	ws := NewServerWithConfig(Config{Seed: 1, Metrics: obs.NewRegistry()})
	t.Cleanup(ws.Close)
	h := ws.Handler()
	serve := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec
	}
	code, err := json.Marshal(newSimRequest{Code: grover7Lowered(t)})
	if err != nil {
		t.Fatal(err)
	}
	var created newResp
	if err := decodeBody(serve("/api/simulation", string(code)), &created); err != nil {
		t.Fatal(err)
	}
	path := "/api/simulation/" + created.ID + "/step"
	// The first runs grow the engine's tables; from the fourth on a
	// run's bytes hold steady.
	for range 4 {
		serve(path, `{"action":"end"}`)
		serve(path, `{"action":"start"}`)
	}
	var ms runtime.MemStats
	var total uint64
	const runs = 5
	for range runs {
		serve(path, `{"action":"start"}`)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", path, strings.NewReader(`{"action":"end"}`))
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&ms)
		total += ms.TotalAlloc - a0
		var st stepResponse
		if err := decodeBody(rec, &st); err != nil || !st.AtEnd {
			t.Fatalf("run-to-end did not end (%v)", err)
		}
	}
	perGate := float64(total) / float64(runs*created.Frame.Total)
	t.Logf("%.0f heap bytes per gate over %d gates", perGate, created.Frame.Total)
	if perGate > maxBytes && !ddPoison {
		t.Fatalf("%.0f heap bytes per gate of a served run-to-end, bound %d", perGate, maxBytes)
	}
}
