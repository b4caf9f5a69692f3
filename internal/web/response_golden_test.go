package web

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"net/http"
	"net/http/httptest"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/qc"
)

// The digests below are SHA-256 sums over raw response bodies, first
// recorded while every response still went through encoding/json and
// re-recorded for the compact SVG markup, which the blanked digests
// and TestCompactSVGEquivalent cover, and for the engine counters of
// SWAP through the kernel, which the engine-blanked digests cover. They pin the frame responses
// byte for byte: the SVG, its escaping, field order, omitted empty
// fields, float formatting and the trailing newline. The simulation
// digests were re-recorded when intermediate weights stopped going
// through the complex table: three engine counters moved, and one
// probability moved in its 16th significant digit, from
// 0.9687500000000009 to the exact 0.96875. They were re-recorded
// again when two addends into one node began to add by their weights:
// on the Grover, Bernstein-Vazirani and phase-estimation walks the
// ctStores, ctEvictions and utCollisions counters fell, and nothing
// outside the engine counters moved. Measurement and reset becoming
// projections through the gate kernel moved the applyLookups,
// applyEvictions, ctStores and ctEvictions counters of 84 bodies, and
// nothing else.
const (
	simResponsesGoldenDigest           = "00dda2c9d9140d0fd0ab00e8bc663579165ebe0618c67929f555ba270ea48059"
	functionalityResponsesGoldenDigest = "8a9a5ec48f8165a3b923998e3757cdf22840fa7b2f263b287637cc42043ba30d"
	verifyCreateResponsesGoldenDigest  = "52d9f8674f75e545818909c4759c5064e20ba88ad8710c3be71eea53807296b7"
)

// The blanked digests cover the same bodies with every frame's "svg"
// value emptied (blankSVG). They pin captions, engine counters, field
// order and float formatting independently of the SVG markup, so a
// change of the markup alone must leave them as they are.
const (
	simResponsesBlankedDigest           = "96bda4a375f34187f837ead3a110f040de3b7572a792c7504c220ac880a2c6a2"
	functionalityResponsesBlankedDigest = "efad120d4f72bd9605383d1dce72235882f66414f708197038b48635dcf85dc9"
	verifyCreateResponsesBlankedDigest  = "7f03f05e8450bf6e3a0f4a0bce56eb58948a84bba70395acfebccd21b2d433a6"
)

// The engine-blanked digests cover the same bodies with every
// "engine" object emptied (blankEngine) and the SVG kept. They pin
// every frame, caption, node count and verdict independently of the
// engine's table and operation counters, so a change of how a gate
// reaches the diagram, and not of what it yields, leaves them as they
// are.
const (
	simResponsesEngineBlankedDigest           = "b81f76d81b496cdd56820ecc9e913f2088de2d11abbdc12cc46a70c1dd4ef83e"
	functionalityResponsesEngineBlankedDigest = "8a9a5ec48f8165a3b923998e3757cdf22840fa7b2f263b287637cc42043ba30d"
	verifyCreateResponsesEngineBlankedDigest  = "89e7f7f90b460f4cd8800fe487fde7d1306928abb56d2598cb9076b04cb5d2f3"
)

// blankSVG returns body with the string value of every "svg" member
// emptied. Frames are written with the SVG first, so every one starts
// with {"svg":" and its value ends at the first unescaped quote.
func blankSVG(body []byte) []byte {
	const key = `"svg":"`
	var out []byte
	for {
		i := bytes.Index(body, []byte(key))
		if i < 0 {
			return append(out, body...)
		}
		out = append(out, body[:i+len(key)]...)
		j := i + len(key)
		for body[j] != '"' {
			if body[j] == '\\' {
				j++
			}
			j++
		}
		body = body[j:]
	}
}

// blankEngine returns body with every "engine" object emptied. The
// object holds only numbers, so its value ends at the first '}'.
func blankEngine(body []byte) []byte {
	const key = `"engine":{`
	var out []byte
	for {
		i := bytes.Index(body, []byte(key))
		if i < 0 {
			return append(out, body...)
		}
		out = append(out, body[:i+len(key)]...)
		body = body[i+len(key)+bytes.IndexByte(body[i+len(key):], '}'):]
	}
}

// goldenStyles are the query strings of the three modes, each with
// edge labels forced on and forced off.
var goldenStyles = []string{
	"?style=classic&labels=1", "?style=classic&labels=0",
	"?style=colored&labels=1", "?style=colored&labels=0",
	"?style=modern&labels=1", "?style=modern&labels=0",
}

// goldenClient serves requests through the handler in process and
// hashes every response body.
type goldenClient struct {
	t *testing.T
	h http.Handler
	d hash.Hash // raw bodies
	b hash.Hash // bodies with the svg values blanked
	e hash.Hash // bodies with the engine objects blanked
	n int
}

func newGoldenClient(t *testing.T) *goldenClient {
	t.Helper()
	ws := NewServerWithConfig(DefaultConfig())
	t.Cleanup(ws.Close)
	return &goldenClient{t: t, h: ws.Handler(), d: sha256.New(), b: sha256.New(), e: sha256.New()}
}

// do serves one request, hashes its body, decodes it into out (when
// non-nil) and fails the test on a non-200 answer.
func (c *goldenClient) do(method, path string, body interface{}, out interface{}) {
	c.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	if rec.Code != http.StatusOK {
		c.t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
	}
	c.d.Write(rec.Body.Bytes())
	c.b.Write(blankSVG(rec.Body.Bytes()))
	c.e.Write(blankEngine(rec.Body.Bytes()))
	c.n++
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			c.t.Fatalf("%s %s: %v", method, path, err)
		}
	}
}

// check compares the digest of the raw bodies with want, that of the
// svg-blanked bodies with wantBlanked and that of the engine-blanked
// bodies with wantEngineBlanked.
func (c *goldenClient) check(want, wantBlanked, wantEngineBlanked string) {
	c.t.Helper()
	if got := hex.EncodeToString(c.e.Sum(nil)); got != wantEngineBlanked {
		c.t.Errorf("%d response bodies changed outside their engine counters: engine-blanked digest %s, want %s", c.n, got, wantEngineBlanked)
	}
	if ddPoison {
		return // the detector build's collections move the engine counters
	}
	if got := hex.EncodeToString(c.b.Sum(nil)); got != wantBlanked {
		c.t.Errorf("%d response bodies changed outside their SVG: blanked digest %s, want %s", c.n, got, wantBlanked)
	}
	if got := hex.EncodeToString(c.d.Sum(nil)); got != want {
		c.t.Fatalf("%d response bodies changed: digest %s, want %s", c.n, got, want)
	}
}

// TestSimResponsesGolden creates a session for every built-in example
// in every style and drives it through forward, backward, start,
// break and end steps, answers each measurement dialog with choose,
// and reads the session back with GET.
func TestSimResponsesGolden(t *testing.T) {
	c := newGoldenClient(t)
	for _, ex := range Examples() {
		for _, q := range goldenStyles {
			var created newResp
			c.do("POST", "/api/simulation"+q, newSimRequest{Code: ex.Code}, &created)
			base := "/api/simulation/" + created.ID
			var st stepResponse
			for _, action := range []string{"forward", "forward", "backward", "start", "break", "forward", "end"} {
				st = stepResponse{}
				c.do("POST", base+"/step"+q, stepRequest{Action: action}, &st)
			}
			for i := 0; st.Pending != nil && i < 16; i++ {
				outcome := 0
				if st.Pending.P1 > st.Pending.P0 {
					outcome = 1
				}
				c.do("POST", base+"/choose"+q, chooseRequest{Outcome: outcome}, nil)
				st = stepResponse{}
				c.do("POST", base+"/step"+q, stepRequest{Action: "end"}, &st)
			}
			if !st.AtEnd {
				t.Fatalf("%s%s: walk did not reach the end", ex.Name, q)
			}
			c.do("GET", base+q, nil, nil)
		}
	}
	c.check(simResponsesGoldenDigest, simResponsesBlankedDigest, simResponsesEngineBlankedDigest)
}

// TestFunctionalityResponsesGolden renders the functionality of QFT(3),
// Grover(4) and its inverse, and Adder(4) in every style.
func TestFunctionalityResponsesGolden(t *testing.T) {
	c := newGoldenClient(t)
	cases := []struct {
		circ    *qc.Circuit
		inverse bool
	}{
		{algorithms.QFT(3), false},
		{algorithms.Grover(4, 5), false},
		{algorithms.Grover(4, 5), true},
		{algorithms.Adder(4), false},
	}
	for _, tc := range cases {
		for _, q := range goldenStyles {
			c.do("POST", "/api/functionality"+q, functionalityRequest{Code: tc.circ.QASM(), Inverse: tc.inverse}, nil)
		}
	}
	c.check(functionalityResponsesGoldenDigest, functionalityResponsesBlankedDigest, functionalityResponsesEngineBlankedDigest)
}

// TestVerifyCreateResponsesGolden creates verification sessions in
// every style; TestVerifyStepResponsesGolden covers the steps.
func TestVerifyCreateResponsesGolden(t *testing.T) {
	c := newGoldenClient(t)
	pairs := []newVerifyRequest{
		{Left: algorithms.QFT(3).QASM(), Right: algorithms.QFTCompiled(3).QASM()},
		{Left: algorithms.Grover(4, 5).QASM(), Right: algorithms.Grover(4, 5).QASM()},
	}
	for _, pair := range pairs {
		for _, q := range goldenStyles {
			c.do("POST", "/api/verification"+q, pair, nil)
		}
	}
	c.check(verifyCreateResponsesGoldenDigest, verifyCreateResponsesBlankedDigest, verifyCreateResponsesEngineBlankedDigest)
}
