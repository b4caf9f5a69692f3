package web

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/obs"
)

// Eviction closes a session's DD package, handing its memory to the
// pools for the next session. These tests hold that an evicted and
// closed session is never touched again: a request for it answers 410
// (or restores it from the spill store), and scrapes of busy sessions
// read only the published snapshots.

// closeTestServer is a server capped at two sessions of each kind, so
// nearly every create evicts and closes one.
func closeTestServer(t *testing.T, spillDir string) (*Server, func(method, path string, body any) (int, []byte)) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg.MaxSessions = 2
	cfg.SampleInterval = 5 * time.Millisecond
	cfg.SpillDir = spillDir
	ws := NewServerWithConfig(cfg)
	t.Cleanup(ws.Close)
	h := ws.Handler()
	do := func(method, path string, body any) (int, []byte) {
		var r io.Reader
		if body != nil {
			buf, err := json.Marshal(body)
			if err != nil {
				t.Error(err)
			}
			r = bytes.NewReader(buf)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, r))
		return rec.Code, rec.Body.Bytes()
	}
	return ws, do
}

// TestEvictionClosesSessionsUnderLoad creates sessions in a loop while
// other goroutines step the oldest live session of each kind and scrape
// /metrics and /debug/sessions/top. Every step must answer 200 or 410
// and no handler may panic. Run under -race, it also checks that
// closing a package races with nothing a scrape reads.
func TestEvictionClosesSessionsUnderLoad(t *testing.T) {
	for _, spill := range []bool{false, true} {
		name := "memory"
		if spill {
			name = "spill"
		}
		t.Run(name, func(t *testing.T) {
			dir := ""
			if spill {
				dir = t.TempDir()
			}
			ws, do := closeTestServer(t, dir)
			var (
				mu        sync.Mutex
				sims, ver []string // created ids, oldest first
				answered  = map[int]int{}
			)
			count := func(code int) {
				mu.Lock()
				answered[code]++
				mu.Unlock()
			}
			// oldest returns the oldest session the cap of two can still
			// hold: the next create evicts it.
			oldest := func(ids *[]string) string {
				mu.Lock()
				defer mu.Unlock()
				if len(*ids) == 0 {
					return ""
				}
				return (*ids)[max(0, len(*ids)-2)]
			}
			done := make(chan struct{})
			var wg sync.WaitGroup
			loop := func(f func(i int)) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						f(i)
					}
				}()
			}
			simActions := []string{"forward", "forward", "backward", "end", "start"}
			loop(func(i int) {
				id := oldest(&sims)
				if id == "" {
					return
				}
				code, body := do("POST", "/api/simulation/"+id+"/step", stepRequest{Action: simActions[i%len(simActions)]})
				count(code)
				if code != http.StatusOK && code != http.StatusGone {
					t.Errorf("sim step: status %d: %s", code, body)
				}
			})
			verActions := []verifyStepRequest{{"left", "forward"}, {"right", "forward"}, {"left", "backward"}}
			loop(func(i int) {
				id := oldest(&ver)
				if id == "" {
					return
				}
				code, body := do("POST", "/api/verification/"+id+"/step", verActions[i%len(verActions)])
				count(code)
				if code != http.StatusOK && code != http.StatusGone {
					t.Errorf("verify step: status %d: %s", code, body)
				}
			})
			loop(func(i int) {
				path := "/metrics"
				if i%2 == 1 {
					path = "/debug/sessions/top"
				}
				if code, body := do("GET", path, nil); code != http.StatusOK {
					t.Errorf("GET %s: status %d: %s", path, code, body)
				}
			})

			simCode := algorithms.QFT(5).QASM()
			left, right := algorithms.QFT(4).QASM(), algorithms.QFTCompiled(4).QASM()
			for i := 0; i < 40; i++ {
				var created newResp
				var code int
				var body []byte
				ids := &sims
				if i%2 == 0 {
					code, body = do("POST", "/api/simulation", newSimRequest{Code: simCode})
				} else {
					ids = &ver
					code, body = do("POST", "/api/verification", newVerifyRequest{Left: left, Right: right})
				}
				if code != http.StatusOK {
					t.Fatalf("create %d: status %d: %s", i, code, body)
				}
				if err := json.Unmarshal(body, &created); err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				*ids = append(*ids, created.ID)
				mu.Unlock()
				time.Sleep(time.Millisecond)
			}
			close(done)
			wg.Wait()
			if n := ws.metrics.panics.Value(); n != 0 {
				t.Fatalf("http_panics_recovered_total = %d, want 0", n)
			}
			t.Logf("steps answered: %v", answered)
			if answered[http.StatusOK] == 0 {
				t.Fatal("no step answered 200")
			}
			if !spill && answered[http.StatusGone] == 0 {
				t.Fatal("no step reached an evicted session")
			}
		})
	}
}

// TestSpillRestoresClosedSession evicts a stepped session (spilling and
// closing it) and checks that the restored session draws the same
// frame.
func TestSpillRestoresClosedSession(t *testing.T) {
	ws, do := closeTestServer(t, t.TempDir())
	code, body := do("POST", "/api/simulation", newSimRequest{Code: algorithms.GHZ(4).QASM()})
	if code != http.StatusOK {
		t.Fatalf("create: status %d: %s", code, body)
	}
	var created newResp
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	path := "/api/simulation/" + created.ID
	for i := 0; i < 3; i++ {
		if code, body := do("POST", path+"/step", stepRequest{Action: "forward"}); code != http.StatusOK {
			t.Fatalf("step: status %d: %s", code, body)
		}
	}
	_, before := do("GET", path, nil)
	for i := 0; i < 2; i++ { // the cap is two: the second create evicts the first session
		if code, body := do("POST", "/api/simulation", newSimRequest{Code: algorithms.Bell().QASM()}); code != http.StatusOK {
			t.Fatalf("create: status %d: %s", code, body)
		}
	}
	ws.spill.flush()
	if got := ws.metrics.spills[kindSim].Value(); got != 1 {
		t.Fatalf("session_spills_total{kind=sim} = %d, want 1", got)
	}
	code, after := do("GET", path, nil)
	if code != http.StatusOK {
		t.Fatalf("GET after eviction: status %d: %s", code, after)
	}
	if got := ws.metrics.restores[kindSim].Value(); got != 1 {
		t.Fatalf("session_restores_total{kind=sim} = %d, want 1", got)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("restored frame differs:\nbefore %s\nafter  %s", before, after)
	}
}
