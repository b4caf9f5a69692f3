package web

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"quantumdd/internal/algorithms"
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
	ws := NewServer(1)
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
