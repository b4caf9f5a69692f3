package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/sim"
	"quantumdd/internal/web"
)

// sequence runs passes of a workload against a fresh server and hashes
// every request (method, path, body) in the order sent.
func sequence(t *testing.T, workload string, seed int64, passes int) [32]byte {
	t.Helper()
	gen, err := newGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	srv := web.NewServerWithConfig(serverConfig())
	defer srv.Close()
	cl := newClient(srv.Handler(), newOracle(serverConfig()))
	cl.logOn = true
	for pass := 0; pass < passes; pass++ {
		walks, err := gen.pass(pass)
		if err != nil {
			t.Fatal(err)
		}
		cl.runPass(pass, walks)
	}
	if cl.failed > 0 {
		t.Fatalf("%s seed %d: %d failed operations", workload, seed, cl.failed)
	}
	h := sha256.New()
	for _, r := range cl.log {
		fmt.Fprintf(h, "%s %s %d\n", r.Method, r.Path, len(r.Body))
		h.Write(r.Body)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		a, b := sequence(t, w, 7, 2), sequence(t, w, 7, 2)
		if a != b {
			t.Errorf("%s: seed 7 gave two different request sequences", w)
		}
		if c := sequence(t, w, 8, 2); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", w)
		}
	}
}

// TestCircuitsFitTheServer checks every generated circuit against the
// shipped admission limits and node budget: simulations run to the end
// and functionalities build without exceeding MaxNodes.
func TestCircuitsFitTheServer(t *testing.T) {
	cfg := web.DefaultConfig()
	for _, w := range workloads {
		for _, seed := range []int64{1, 2, 3} {
			gen, err := newGenerator(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			walks, err := gen.pass(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, wk := range walks {
				for _, code := range []string{wk.Code, wk.Right} {
					if code == "" {
						continue
					}
					c, err := web.ParseCircuit(code, "")
					if err != nil {
						t.Fatalf("%s: %v", wk.Name, err)
					}
					if c.NQubits > cfg.MaxQubits || len(c.Ops) > cfg.MaxOps {
						t.Errorf("%s: %d qubits, %d ops exceed admission", wk.Name, c.NQubits, len(c.Ops))
					}
					peak := 0
					switch wk.Kind {
					case walkTour, walkSim, walkNoisy:
						s := sim.New(c, sim.WithMaxNodes(cfg.MaxNodes))
						if _, err := s.RunToEnd(); err != nil {
							t.Errorf("%s: %v", wk.Name, err)
						}
						peak = s.Pkg().LiveNodes()
					case walkFunc, walkVerify:
						p, _, err := newOracle(cfg).functionality(nil, code, wk.Inverse)
						if err != nil {
							t.Errorf("%s: %v", wk.Name, err)
							continue
						}
						peak = p.LiveNodes()
					}
					t.Logf("%s/%d %-28s %2d qubits %4d ops, %6d live nodes", w, seed, wk.Name, c.NQubits, len(c.Ops), peak)
				}
			}
		}
	}
}

// TestLowerControls checks the multi-control lowering against the
// unlowered circuit on the dense simulator: the working qubits keep
// their marginals and every ancilla returns to |0⟩.
func TestLowerControls(t *testing.T) {
	for n := 3; n <= 6; n++ {
		for _, marked := range []uint64{0, 5, 1<<uint(n) - 1} {
			c := algorithms.Grover(n, marked)
			code, err := qasmOf(c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := denseMarginals(code)
			if err != nil {
				t.Fatal(err)
			}
			want := denseMarginalsOf(c)
			if len(got) != n+max(0, n-3) {
				t.Fatalf("Grover(%d): lowered to %d qubits", n, len(got))
			}
			for q := range got {
				w := 0.0
				if q < n {
					w = want[q]
				}
				if math.Abs(got[q]-w) > 1e-9 {
					t.Errorf("Grover(%d, %d): P(q[%d]=1) = %g, unlowered %g", n, marked, q, got[q], w)
				}
			}
		}
	}
}
