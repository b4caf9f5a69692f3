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
// the compact SVG markup, for the engine counters of SWAP through the
// kernel and for those of adding two edges into one node by their
// weights, and once more when a step back started to restore the
// positions from before the step, and when frames stopped carrying the
// engine member; it then became the engine-blanked digest, which held.
// It pins the "applied" captions and the frames.
const verifyStepGoldenDigest = "f57098e9bc6cdd2ea094a379e16f7e126d0ef1e1a77b810224d087358f09f099"

// verifyStepBlankedDigest covers the same bodies with every frame's
// "svg" value emptied (blankSVG), so it holds across markup changes;
// it was re-recorded with the full digest for the engine counters,
// both times, for the restored positions and for the engine member's
// removal.
const verifyStepBlankedDigest = "4dc52af7a545fa048039bd5649ef404d7d308a4c33fafedbc887808772535ea2"

// verifyStepEngineBlankedDigest covers the same bodies with every
// "engine" member removed (blankEngine) and the SVG kept, so it holds
// across changes of the engine counters alone; it was re-recorded for
// the restored positions and when blankEngine began to remove the
// member instead of emptying it.
const verifyStepEngineBlankedDigest = "f57098e9bc6cdd2ea094a379e16f7e126d0ef1e1a77b810224d087358f09f099"

// TestVerifyStepResponsesGolden walks two verification sessions through
// single steps on both sides, barrier fast-forwards, steps past the
// end of a side and undos, and hashes the raw response bodies.
func TestVerifyStepResponsesGolden(t *testing.T) {
	srv := newTestServer(t)
	h, blanked, engineBlanked := sha256.New(), sha256.New(), sha256.New()
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
			engineBlanked.Write(blankEngine(body))
		}
	}
	if got := hex.EncodeToString(engineBlanked.Sum(nil)); got != verifyStepEngineBlankedDigest {
		t.Errorf("verification step responses changed outside their engine counters: engine-blanked digest %s, want %s", got, verifyStepEngineBlankedDigest)
	}
	if ddPoison {
		return // the detector build's collections move the engine counters
	}
	if got := hex.EncodeToString(blanked.Sum(nil)); got != verifyStepBlankedDigest {
		t.Errorf("verification step responses changed outside their SVG: blanked digest %s, want %s", got, verifyStepBlankedDigest)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != verifyStepGoldenDigest {
		t.Fatalf("verification step responses changed: digest %s, want %s", got, verifyStepGoldenDigest)
	}
}
