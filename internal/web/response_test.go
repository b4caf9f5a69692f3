package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/obs"
)

// TestAccessLogLine pins the access log: one line per request with the
// request id first, and handler warnings tagged with the same id.
func TestAccessLogLine(t *testing.T) {
	var logBuf bytes.Buffer
	drop := func(_ []string, a slog.Attr) slog.Attr {
		if a.Key == slog.TimeKey || a.Key == "duration" {
			return slog.Attr{}
		}
		return a
	}
	ws := NewServerWithConfig(Config{
		Logger:   slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{ReplaceAttr: drop})),
		Seed:     1,
		MaxNodes: 4,
		Metrics:  obs.NewRegistry(),
	})
	t.Cleanup(ws.Close)
	h := ws.Handler()
	serve := func(method, path, body string) {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, strings.NewReader(body)))
	}
	serve("GET", "/api/examples", "")
	serve("GET", "/nosuchpage", "")
	serve("POST", "/api/simulation?style=modern", "{not json")
	noisy := fmt.Sprintf(`{"code":%q,"depolarizing":0.01,"trajectories":2}`, algorithms.GHZ(6).QASM())
	serve("POST", "/api/noisy", noisy)

	lines := strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n")
	want := []string{
		"level=INFO msg=request requestId=req-1 method=GET path=/api/examples status=200",
		"level=INFO msg=request requestId=req-2 method=GET path=/nosuchpage status=404",
		"level=INFO msg=request requestId=req-3 method=POST path=/api/simulation status=400",
		`level=WARN msg="noisy ensemble degraded to partial result" requestId=req-4 completed=0 requested=2 failed=2 error=`,
		"level=INFO msg=request requestId=req-4 method=POST path=/api/noisy status=200",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d log lines, want %d:\n%s", len(lines), len(want), logBuf.String())
	}
	for i, w := range want {
		if lines[i] != w && !(strings.HasSuffix(w, "=") && strings.HasPrefix(lines[i], w)) {
			t.Errorf("log line %d:\n got %s\nwant %s", i, lines[i], w)
		}
	}
}

// TestFrameResponseAllocBytes guards the heap cost of the commonest
// request: a QFT(5) step through the full handler chain, averaged over
// three forward walks, in every style. TotalAlloc is read around the
// handler call alone, so building the request does not count.
func TestFrameResponseAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap byte counts are not meaningful under the race detector")
	}
	const maxKB = 20.0
	ws := NewServerWithConfig(Config{Seed: 1, Metrics: obs.NewRegistry()})
	t.Cleanup(ws.Close)
	h := ws.Handler()
	code := fmt.Sprintf(`{"code":%q}`, algorithms.QFT(5).QASM())
	var ms runtime.MemStats
	totalAlloc := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	for _, style := range []string{"classic", "colored", "modern"} {
		var created newResp
		if err := decodeBody(serve("POST", "/api/simulation?style="+style, code), &created); err != nil {
			t.Fatal(err)
		}
		path := "/api/simulation/" + created.ID + "/step?style=" + style
		var total uint64
		steps := 0
		for walk := 0; walk < 3; walk++ {
			for atEnd := false; !atEnd; steps++ {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest("POST", path, strings.NewReader(`{"action":"forward"}`))
				a0 := totalAlloc()
				h.ServeHTTP(rec, req)
				total += totalAlloc() - a0
				var st stepResponse
				if err := decodeBody(rec, &st); err != nil {
					t.Fatal(err)
				}
				atEnd = st.AtEnd
			}
			serve("POST", path, `{"action":"start"}`)
		}
		kb := float64(total) / float64(steps) / 1024
		t.Logf("%s: %.1f kB per step request over %d steps", style, kb, steps)
		if kb > maxKB {
			t.Errorf("%s: %.1f kB per step request, want at most %.0f kB", style, kb, maxKB)
		}
	}
}

func decodeBody(rec *httptest.ResponseRecorder, out interface{}) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// TestEncodeFailureAnswers500 puts a NaN or ±Inf into a response on
// both encoding paths: the answer must be a 500 with the error
// envelope and the request id, never a 200 with an empty body.
func TestEncodeFailureAnswers500(t *testing.T) {
	var logBuf bytes.Buffer
	ws := NewServerWithConfig(Config{Logger: slog.New(slog.NewTextHandler(&logBuf, nil)), Metrics: obs.NewRegistry()})
	t.Cleanup(ws.Close)
	frame := func(f Frame) Frame { f.SVG = "<svg/>"; return f }
	cases := map[string]func(w http.ResponseWriter, r *http.Request){
		"writeJSON": func(w http.ResponseWriter, r *http.Request) {
			ws.writeJSON(w, r, http.StatusOK, noisyResponse{MeanNodes: math.NaN()})
		},
		"probs": func(w http.ResponseWriter, r *http.Request) {
			ws.writeFrame(w, r, &stepResponse{Frame: frame(Frame{Probs: []float64{0.5, math.NaN()}})})
		},
		"pending": func(w http.ResponseWriter, r *http.Request) {
			ws.writeFrame(w, r, &stepResponse{Frame: frame(Frame{}), Pending: &PendingChoice{P0: math.Inf(1)}})
		},
		"engine": func(w http.ResponseWriter, r *http.Request) {
			ws.writeFrame(w, r, &verifyStepResponse{Frame: frame(Frame{Engine: &EngineStats{UniqueLoadV: math.Inf(-1)}})})
		},
		"create": func(w http.ResponseWriter, r *http.Request) {
			ws.writeFrame(w, r, &frameResponse{Frame: frame(Frame{Engine: &EngineStats{UniqueLoadM: math.NaN()}}), ID: "sim-1"})
		},
	}
	for name, handler := range cases {
		logBuf.Reset()
		rec := httptest.NewRecorder()
		ws.withMiddleware(http.HandlerFunc(handler)).ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500; body %q", name, rec.Code, rec.Body.String())
			continue
		}
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Errorf("%s: body %q is not the error envelope: %v", name, rec.Body.String(), err)
			continue
		}
		if id := rec.Header().Get("X-Request-ID"); e.Code != codeInternal || e.RequestID == "" || e.RequestID != id {
			t.Errorf("%s: envelope %+v, want code %q and request id %q", name, e, codeInternal, id)
		}
		if !strings.Contains(logBuf.String(), "response encoding failed") {
			t.Errorf("%s: encoding failure not logged:\n%s", name, logBuf.String())
		}
	}
}

// TestFrameAppenderMatchesEncodingJSON compares the fixed-schema
// appenders with encoding/json on randomized responses: empty and
// populated optional fields, floats across the exponent-format
// boundaries, and strings with every class of escape.
func TestFrameAppenderMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	pieces := []string{"", "a", "<svg>", `"`, `\`, "\n", "\t", "\x00", "\x1f", " ", "√2", "\xff", "&", "q[1]"}
	str := func() string {
		var b strings.Builder
		for n := rng.IntN(6); n > 0; n-- {
			b.WriteString(pieces[rng.IntN(len(pieces))])
		}
		return b.String()
	}
	float := func() float64 {
		switch rng.IntN(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64()
		case 2:
			return math.Ldexp(rng.Float64()-0.5, rng.IntN(160)-80)
		}
		return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.IntN(0x7ff))<<52)
	}
	ints := func() []int {
		switch rng.IntN(3) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		v := make([]int, 1+rng.IntN(5))
		for i := range v {
			v[i] = rng.IntN(2000) - 1000
		}
		return v
	}
	frame := func() Frame {
		f := Frame{SVG: str(), Nodes: rng.IntN(100), Caption: str(), Pos: rng.IntN(50), Total: rng.IntN(50),
			Classical: ints(), PathCount: int64(rng.IntN(3)) << rng.IntN(40), PeakNodes: rng.IntN(3) * rng.IntN(99), LevelHist: ints()}
		if rng.IntN(2) == 0 {
			f.Probs = make([]float64, rng.IntN(5))
			for i := range f.Probs {
				f.Probs[i] = float()
			}
		}
		if rng.IntN(2) == 0 {
			f.Engine = &EngineStats{LiveNodes: rng.IntN(1e6), UniqueLoadV: float(), UniqueLoadM: float(),
				UTCollisions: rng.Uint64(), CTStores: rng.Uint64() >> rng.IntN(64), FreeNodes: rng.IntN(1e5),
				GCRuns: uint64(rng.IntN(9)), ApplyMIdentitySkips: rng.Uint64(), GenericOps: uint64(rng.IntN(2))}
		}
		return f
	}
	reference := func(v interface{}) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for i := 0; i < 3000; i++ {
		var app frameAppender
		var want []byte
		switch i % 3 {
		case 0:
			sr := &stepResponse{Frame: frame(), Event: str(), Error: str(), AtEnd: rng.IntN(2) == 0, AtStart: rng.IntN(2) == 0}
			if rng.IntN(2) == 0 {
				sr.Pending = &PendingChoice{OpIndex: rng.IntN(20), Kind: str(), Qubit: rng.IntN(8), P0: float(), P1: float()}
			}
			app, want = sr, reference(sr)
		case 1:
			vr := &verifyStepResponse{Frame: frame(), Applied: str(), Error: str(), Identity: str(), LeftPos: rng.IntN(40), RightPos: rng.IntN(40)}
			app, want = vr, reference(vr)
		default:
			fr := &frameResponse{Frame: frame(), ID: str()}
			m := map[string]interface{}{"frame": fr.Frame}
			if fr.ID != "" {
				m["id"] = fr.ID
			}
			app, want = fr, reference(m)
		}
		got, err := app.appendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("response %d differs from encoding/json:\n got %s\nwant %s", i, got, want)
		}
	}
}
