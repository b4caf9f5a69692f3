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
// positions from before the step. It pins the "applied" captions, the
// frames and the engine counters they carry.
const verifyStepGoldenDigest = "4ebecd83f374998c6bdeefc7c31e7f230efe6f15a9dadd7c01d160574927c452"

// verifyStepBlankedDigest covers the same bodies with every frame's
// "svg" value emptied (blankSVG), so it holds across markup changes;
// it was re-recorded with the full digest for the engine counters,
// both times, and for the restored positions.
const verifyStepBlankedDigest = "03a43edad346cd6ac01843bfc606d935ccba7b4edac89a75493181b994f844b4"

// verifyStepEngineBlankedDigest covers the same bodies with every
// "engine" object emptied (blankEngine) and the SVG kept, so it holds
// across changes of the engine counters alone; it was re-recorded for
// the restored positions.
const verifyStepEngineBlankedDigest = "7a77127697cffee0932c68f63d98a1165c4f4968a4495068d0cb4ed2e9a2f40a"

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
