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
// when stepping still formatted every applied gate. It pins the
// "applied" captions, the frames and the engine counters they carry.
const verifyStepGoldenDigest = "4d33f7f680f87d95fa9bbc67fc011f59973fc2d02cf375d3ca72147c075364ed"

// TestVerifyStepResponsesGolden walks two verification sessions through
// single steps on both sides, barrier fast-forwards, steps past the
// end of a side and undos, and hashes the raw response bodies.
func TestVerifyStepResponsesGolden(t *testing.T) {
	srv := newTestServer(t)
	h := sha256.New()
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
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != verifyStepGoldenDigest {
		t.Fatalf("verification step responses changed: digest %s, want %s", got, verifyStepGoldenDigest)
	}
}
