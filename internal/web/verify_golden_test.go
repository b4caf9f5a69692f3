package web

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"quantumdd/internal/algorithms"
)

// verifyStepGoldenDigest is the SHA-256 of every verification step
// response body of the walk in TestVerifyStepResponsesGolden, recorded
// when stepping still formatted every applied gate and re-recorded for
// the compact SVG markup. It pins the "applied" captions, the frames
// and the engine counters they carry.
const verifyStepGoldenDigest = "be166a69f3bcd85602a03cb7d0a04a2df30107be738b478260ccbf9b61fc9fdc"

// verifyStepBlankedDigest covers the same bodies with every frame's
// "svg" value emptied (blankSVG), so it holds across markup changes.
const verifyStepBlankedDigest = "dcabaf288d5cba0d72a607c4a9ff95405d57e156e1aae8b449a7491586aa4c0c"

// TestVerifyStepResponsesGolden walks two verification sessions through
// single steps on both sides, barrier fast-forwards, steps past the
// end of a side and undos, and hashes the raw response bodies.
func TestVerifyStepResponsesGolden(t *testing.T) {
	srv := newTestServer(t)
	h, blanked := sha256.New(), sha256.New()
	pairs := []newVerifyRequest{
		{Left: algorithms.QFT(3).QASM(), Right: algorithms.QFTCompiled(3).QASM()},
		{Left: algorithms.Grover(4, 5).QASM(), Right: algorithms.Grover(4, 5).QASM()},
	}
	walk := []verifyStepRequest{
		{"left", "forward"}, {"right", "barrier"}, {"left", "forward"}, {"right", "forward"},
		{"left", "backward"}, {"left", "forward"}, {"right", "barrier"}, {"left", "barrier"},
		{"left", "barrier"}, {"left", "barrier"}, {"left", "forward"}, {"right", "forward"},
		{"right", "barrier"}, {"right", "barrier"}, {"right", "barrier"}, {"right", "forward"},
		{"left", "backward"}, {"right", "backward"}, {"left", "forward"},
	}
	for _, pair := range pairs {
		var created newResp
		if resp := post(t, srv, "/api/verification", pair, &created); resp.StatusCode != http.StatusOK {
			t.Fatalf("create: status %d", resp.StatusCode)
		}
		for _, req := range walk {
			buf, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(srv.URL+"/api/verification/"+created.ID+"/step", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%+v: status %d, %v", req, resp.StatusCode, err)
			}
			h.Write(body)
			blanked.Write(blankSVG(body))
		}
	}
	if got := hex.EncodeToString(blanked.Sum(nil)); got != verifyStepBlankedDigest {
		t.Errorf("verification step responses changed outside their SVG: blanked digest %s, want %s", got, verifyStepBlankedDigest)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != verifyStepGoldenDigest {
		t.Fatalf("verification step responses changed: digest %s, want %s", got, verifyStepGoldenDigest)
	}
}
