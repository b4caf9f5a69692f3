package web

// Durability tests: eviction spills sessions to disk, requests restore
// them transparently and bit-identically, and every injected fault
// degrades to the pre-spill 410 behavior — never a crash, never wrong
// state.

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/obs"
	"quantumdd/internal/snapshot"
	"quantumdd/internal/snapshot/faultfs"
)

// newSpillTestServer builds a server with spilling enabled into a
// temporary directory and a private metrics registry.
func newSpillTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.Metrics = obs.NewRegistry()
	cfg.SpillDir = t.TempDir()
	cfg.SessionTTL = time.Minute
	if mutate != nil {
		mutate(&cfg)
	}
	ws := NewServerWithConfig(cfg)
	t.Cleanup(ws.Close)
	srv := httptest.NewServer(ws.Handler())
	t.Cleanup(srv.Close)
	return ws, srv
}

// evictAll fakes the passage of time past the TTL and runs one reaper
// sweep, then waits for the background spill writes to land on disk.
func evictAll(t *testing.T, ws *Server) {
	t.Helper()
	if n := ws.reapIdle(time.Now().Add(ws.cfg.SessionTTL + time.Minute)); n == 0 {
		t.Fatal("reap evicted nothing")
	}
	ws.spill.flush()
}

// sessionSnapshot re-encodes a live session's durable form; byte
// equality of two snapshots proves the DD root edges (weights and
// full node structure), position and classical state all match.
func sessionSnapshot(t *testing.T, ws *Server, id string) []byte {
	t.Helper()
	for _, kind := range ws.kinds() {
		if h, err := kind.reg.acquire(id, time.Now()); err == nil {
			defer h.release()
			return h.val.snapshot()
		}
	}
	t.Fatalf("no live session %s", id)
	return nil
}

// spillKind is one tab's side of the durability tests: its kind
// index, where its API lives and how to create and step a session.
type spillKind struct {
	idx   int    // kindSim or kindVerify
	path  string // API prefix; the session id follows
	other string // the other tab's API prefix
	// create opens a session over code and steps it twice.
	create func(t *testing.T, srv *httptest.Server, code string) string
	// finish runs the session over code to its end and checks that the
	// step answered 200 and reports the end.
	finish func(t *testing.T, srv *httptest.Server, id, code string)
}

var spillKinds = []spillKind{
	{
		idx:   kindSim,
		path:  "/api/simulation/",
		other: "/api/verification/",
		create: func(t *testing.T, srv *httptest.Server, code string) string {
			var created newResp
			post(t, srv, "/api/simulation", newSimRequest{Code: code}, &created)
			for i := 0; i < 2; i++ {
				post(t, srv, "/api/simulation/"+created.ID+"/step", stepRequest{Action: "forward"}, nil)
			}
			return created.ID
		},
		finish: func(t *testing.T, srv *httptest.Server, id, code string) {
			var step stepResponse
			resp := post(t, srv, "/api/simulation/"+id+"/step", stepRequest{Action: "end"}, &step)
			if resp.StatusCode != http.StatusOK || !step.AtEnd {
				t.Fatalf("step to the end: status %d, atEnd %v; want 200 at the end", resp.StatusCode, step.AtEnd)
			}
		},
	},
	{
		idx:   kindVerify,
		path:  "/api/verification/",
		other: "/api/simulation/",
		create: func(t *testing.T, srv *httptest.Server, code string) string {
			var created newResp
			post(t, srv, "/api/verification", newVerifyRequest{Left: code, Right: code}, &created)
			for i := 0; i < 2; i++ {
				post(t, srv, "/api/verification/"+created.ID+"/step", verifyStepRequest{Action: "forward", Side: "left"}, nil)
			}
			return created.ID
		},
		finish: func(t *testing.T, srv *httptest.Server, id, code string) {
			circ, err := ParseCircuit(code, "")
			if err != nil {
				t.Fatal(err)
			}
			// No barriers: the right side runs to its end, and the left
			// side stays where create left it.
			var step verifyStepResponse
			resp := post(t, srv, "/api/verification/"+id+"/step", verifyStepRequest{Action: "barrier", Side: "right"}, &step)
			if resp.StatusCode != http.StatusOK || step.RightPos != len(circ.Ops) || step.LeftPos != 2 {
				t.Fatalf("right side to its end: status %d, positions %d/%d; want 200 at 2/%d",
					resp.StatusCode, step.LeftPos, step.RightPos, len(circ.Ops))
			}
		},
	},
}

// forEachKind runs body as one subtest per session kind.
func forEachKind(t *testing.T, body func(t *testing.T, k spillKind)) {
	for _, k := range spillKinds {
		t.Run(kindLabels[k.idx], func(t *testing.T) { body(t, k) })
	}
}

func TestSpillEvictRestoreBitIdentical(t *testing.T) {
	forEachKind(t, func(t *testing.T, k spillKind) {
		ws, srv := newSpillTestServer(t, nil)
		code := algorithms.GHZ(3).QASM()
		id := k.create(t, srv, code)
		before := sessionSnapshot(t, ws, id)

		evictAll(t, ws)
		if got := ws.SpillStore().Len(); got != 1 {
			t.Fatalf("spill store holds %d snapshots after eviction, want 1", got)
		}
		if got := ws.metrics.spills[k.idx].Value(); got != 1 {
			t.Fatalf("session_spills_total{kind=%s} = %d, want 1", kindLabels[k.idx], got)
		}

		// The next request transparently restores: no 410, same state.
		var restored struct{ Frame Frame }
		resp := get(t, srv, k.path+id, &restored)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET after eviction: status %d, want 200 (transparent restore)", resp.StatusCode)
		}
		if !strings.Contains(restored.Frame.SVG, "<svg") {
			t.Fatal("restored session rendered no SVG frame")
		}
		if after := sessionSnapshot(t, ws, id); !bytes.Equal(before, after) {
			t.Fatalf("restored session is not bit-identical: snapshot %d bytes vs %d bytes", len(before), len(after))
		}
		if got := ws.metrics.restores[k.idx].Value(); got != 1 {
			t.Fatalf("session_restores_total{kind=%s} = %d, want 1", kindLabels[k.idx], got)
		}
		// The consumed snapshot is stale the moment the session lives again.
		if got := ws.SpillStore().Len(); got != 0 {
			t.Fatalf("spill store holds %d snapshots after restore, want 0", got)
		}

		// The restored session keeps working: run it to the end.
		k.finish(t, srv, id, code)
	})
}

// TestWrongKindRequestKeepsSnapshot asks the other tab's endpoint for
// a spilled session: it answers 404, as for a live session of the
// other kind, and leaves the snapshot, the counters and the id alone,
// so the session's own endpoint still restores it — or, when the
// snapshot is corrupt, counts the damage under the session's own kind.
func TestWrongKindRequestKeepsSnapshot(t *testing.T) {
	forEachKind(t, func(t *testing.T, k spillKind) {
		for _, corrupt := range []bool{false, true} {
			name := "intact"
			if corrupt {
				name = "corrupt"
			}
			t.Run(name, func(t *testing.T) {
				ws, srv := newSpillTestServer(t, nil)
				id := k.create(t, srv, algorithms.GHZ(3).QASM())
				before := sessionSnapshot(t, ws, id)
				evictAll(t, ws)
				if corrupt {
					corruptSnapshot(t, ws)
				}

				if resp := get(t, srv, k.other+id, nil); resp.StatusCode != http.StatusNotFound {
					t.Fatalf("GET %s%s: status %d, want 404", k.other, id, resp.StatusCode)
				}
				if got := ws.SpillStore().Len(); got != 1 {
					t.Fatalf("spill store holds %d snapshots after the wrong-kind request, want 1", got)
				}
				for kind, label := range kindLabels {
					if ws.metrics.restoreFailures[kind].Value() != 0 || ws.metrics.corruptions[kind].Value() != 0 {
						t.Fatalf("wrong-kind request counted a failure under kind %s", label)
					}
				}

				resp := get(t, srv, k.path+id, nil)
				if corrupt {
					if resp.StatusCode != http.StatusGone {
						t.Fatalf("GET %s%s with corrupt snapshot: status %d, want 410", k.path, id, resp.StatusCode)
					}
					if got := ws.metrics.corruptions[k.idx].Value(); got != 1 {
						t.Fatalf("snapshot_corruptions_total{kind=%s} = %d, want 1", kindLabels[k.idx], got)
					}
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s%s after the wrong-kind request: status %d, want 200", k.path, id, resp.StatusCode)
				}
				if after := sessionSnapshot(t, ws, id); !bytes.Equal(before, after) {
					t.Fatal("session restored after a wrong-kind request is not bit-identical")
				}
			})
		}
	})
}

// TestRestoreSurvivesRestart proves the errSessionUnknown restore path:
// a fresh server over the same spill directory has an empty registry
// (no tombstones either) but still restores its predecessor's
// sessions — one spilled by eviction and one still live at Close,
// which Close spills — and issues the next id, not one of theirs, even
// after it created and spilled a session of its own.
func TestRestoreSurvivesRestart(t *testing.T) {
	forEachKind(t, func(t *testing.T, k spillKind) {
		cfg := DefaultConfig()
		cfg.Seed = 1
		cfg.Metrics = obs.NewRegistry()
		cfg.SpillDir = t.TempDir()
		cfg.SessionTTL = time.Minute

		ws1 := NewServerWithConfig(cfg)
		srv1 := httptest.NewServer(ws1.Handler())
		spilled := k.create(t, srv1, algorithms.GHZ(3).QASM())
		before := map[string][]byte{spilled: sessionSnapshot(t, ws1, spilled)}
		evictAll(t, ws1)
		live := k.create(t, srv1, algorithms.QFT(3).QASM())
		before[live] = sessionSnapshot(t, ws1, live)
		var liveFrame newResp
		get(t, srv1, k.path+live, &liveFrame)
		srv1.Close()
		ws1.Close()

		cfg.Metrics = obs.NewRegistry()
		ws2 := NewServerWithConfig(cfg)
		t.Cleanup(ws2.Close)
		srv2 := httptest.NewServer(ws2.Handler())
		t.Cleanup(srv2.Close)
		prefix, n, _ := strings.Cut(live, "-")
		last, err := strconv.Atoi(n)
		if err != nil {
			t.Fatal(err)
		}
		if fresh, want := k.create(t, srv2, algorithms.Bell().QASM()), fmt.Sprintf("%s-%d", prefix, last+1); fresh != want {
			t.Errorf("restarted server issued %s, want the next id %s", fresh, want)
		}
		evictAll(t, ws2)

		for id, snap := range before {
			var frame newResp
			if resp := get(t, srv2, k.path+id, &frame); resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s on restarted server: status %d, want 200", id, resp.StatusCode)
			}
			if after := sessionSnapshot(t, ws2, id); !bytes.Equal(snap, after) {
				t.Fatalf("session %s restored across restart is not bit-identical", id)
			}
			if id == live && (frame.Frame.SVG != liveFrame.Frame.SVG || frame.Frame.Nodes != liveFrame.Frame.Nodes || frame.Frame.Pos != liveFrame.Frame.Pos) {
				t.Fatalf("session %s, live at Close, restored with a different frame", id)
			}
		}
	})
}

// corruptSnapshot flips one bit in the middle of the single snapshot
// file in the server's spill directory.
func corruptSnapshot(t *testing.T, ws *Server) {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(ws.cfg.SpillDir, "*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files on disk: %v (err %v)", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptSnapshotDegradesToGone flips one bit of the on-disk
// snapshot: the restore must reject it (checksum), count the
// corruption, log a structured warning carrying the request id, leave
// a definitive tombstone — and never crash or serve wrong state.
func TestCorruptSnapshotDegradesToGone(t *testing.T) {
	forEachKind(t, func(t *testing.T, k spillKind) {
		var logBuf bytes.Buffer
		ws, srv := newSpillTestServer(t, func(cfg *Config) {
			cfg.Logger = slog.New(slog.NewTextHandler(&logBuf, nil))
		})

		id := k.create(t, srv, algorithms.GHZ(3).QASM())
		evictAll(t, ws)
		corruptSnapshot(t, ws)

		resp := get(t, srv, k.path+id, nil)
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("GET with corrupt snapshot: status %d, want 410", resp.StatusCode)
		}
		if got := ws.metrics.corruptions[k.idx].Value(); got != 1 {
			t.Fatalf("snapshot_corruptions_total{kind=%s} = %d, want 1", kindLabels[k.idx], got)
		}
		if got := ws.metrics.restoreFailures[k.idx].Value(); got != 1 {
			t.Fatalf("session_restore_failures_total{kind=%s} = %d, want 1", kindLabels[k.idx], got)
		}
		logs := logBuf.String()
		if !strings.Contains(logs, "degraded to tombstone") || !strings.Contains(logs, "requestId=") {
			t.Fatalf("degraded path did not log a structured warning with request id:\n%s", logs)
		}

		// The unusable snapshot was discarded and the id tombstoned: a
		// second request answers 410 immediately without re-counting.
		resp = get(t, srv, k.path+id, nil)
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("second GET: status %d, want 410", resp.StatusCode)
		}
		if got := ws.metrics.corruptions[k.idx].Value(); got != 1 {
			t.Fatalf("corruption counted twice: %d", got)
		}

		// And the server still serves fresh sessions.
		if again := k.create(t, srv, algorithms.Bell().QASM()); again == "" {
			t.Fatal("server unhealthy after corruption: no session id")
		}
	})
}

// TestTruncatedSnapshotDegradesToGone injects a short read through the
// fault harness: restore sees a truncated envelope and degrades.
func TestTruncatedSnapshotDegradesToGone(t *testing.T) {
	forEachKind(t, func(t *testing.T, k spillKind) {
		ws, srv := newSpillTestServer(t, nil)

		id := k.create(t, srv, algorithms.Bell().QASM())
		evictAll(t, ws)

		// Re-open the same directory through a fault-injecting filesystem
		// whose first read comes back short.
		ffs := faultfs.New(snapshot.OSFS{})
		ffs.ShortReads = map[int]bool{1: true}
		st, err := snapshot.OpenStore(ws.cfg.SpillDir, 0, ffs)
		if err != nil {
			t.Fatal(err)
		}
		ws.spill.store = st

		resp := get(t, srv, k.path+id, nil)
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("GET with short read: status %d, want 410", resp.StatusCode)
		}
		if got := ws.metrics.corruptions[k.idx].Value(); got != 1 {
			t.Fatalf("snapshot_corruptions_total{kind=%s} = %d, want 1", kindLabels[k.idx], got)
		}
	})
}

// TestSpillWriteFailureDegradesToTombstone injects persistent write
// failures: eviction falls back to the plain tombstone, the failure is
// counted, and the server keeps running.
func TestSpillWriteFailureDegradesToTombstone(t *testing.T) {
	forEachKind(t, func(t *testing.T, k spillKind) {
		ws, srv := newSpillTestServer(t, nil)

		ffs := faultfs.New(snapshot.OSFS{})
		ffs.FailWrites = map[int]bool{1: true, 2: true, 3: true}
		st, err := snapshot.OpenStore(ws.cfg.SpillDir, 0, ffs)
		if err != nil {
			t.Fatal(err)
		}
		ws.spill.store = st

		id := k.create(t, srv, algorithms.Bell().QASM())
		evictAll(t, ws)

		if got := ws.metrics.spillFailures[k.idx].Value(); got != 1 {
			t.Fatalf("session_spill_failures_total{kind=%s} = %d, want 1", kindLabels[k.idx], got)
		}
		resp := get(t, srv, k.path+id, nil)
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("GET after failed spill: status %d, want 410", resp.StatusCode)
		}
	})
}

// TestSpillDirUnavailableStartsDegraded points SpillDir at a regular
// file: the server must start anyway, with durability off and the
// classic evict-to-410 behavior intact.
func TestSpillDirUnavailableStartsDegraded(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ws, srv := newSpillTestServer(t, func(cfg *Config) {
		cfg.SpillDir = blocker
	})
	if ws.spillEnabled() {
		t.Fatal("spill enabled despite unusable directory")
	}
	var created newResp
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.Bell().QASM()}, &created)
	if n := ws.reapIdle(time.Now().Add(ws.cfg.SessionTTL + time.Minute)); n != 1 {
		t.Fatalf("reaped %d, want 1", n)
	}
	resp := get(t, srv, "/api/simulation/"+created.ID, nil)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("GET after eviction without spill: status %d, want 410", resp.StatusCode)
	}
}

// TestPendingRestoreBeforeWriteCompletes restores from the pending map:
// a request arriving between eviction and the durable write landing
// must still find the snapshot.
func TestPendingRestoreBeforeWriteCompletes(t *testing.T) {
	ws, srv := newSpillTestServer(t, nil)

	// Slow the durable write down far past the restore below by
	// injecting transient write failures (each attempt backs off).
	ffs := faultfs.New(snapshot.OSFS{})
	ffs.FailWrites = map[int]bool{1: true, 2: true}
	st, err := snapshot.OpenStore(ws.cfg.SpillDir, 0, ffs)
	if err != nil {
		t.Fatal(err)
	}
	ws.spill.store = st

	var created newResp
	post(t, srv, "/api/simulation", newSimRequest{Code: algorithms.Bell().QASM()}, &created)
	before := sessionSnapshot(t, ws, created.ID)
	if n := ws.reapIdle(time.Now().Add(ws.cfg.SessionTTL + time.Minute)); n != 1 {
		t.Fatalf("reaped %d, want 1", n)
	}
	// No flush: race the background write.
	resp := get(t, srv, "/api/simulation/"+created.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET racing the spill write: status %d, want 200", resp.StatusCode)
	}
	after := sessionSnapshot(t, ws, created.ID)
	if !bytes.Equal(before, after) {
		t.Fatal("pending-map restore is not bit-identical")
	}
	ws.spill.flush()
}

// TestCloseStopsAllGoroutines is the shutdown leak check: servers with
// reaper and in-flight spill writes must leave no goroutines behind.
func TestCloseStopsAllGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		cfg := DefaultConfig()
		cfg.Metrics = obs.NewRegistry()
		cfg.SpillDir = t.TempDir()
		cfg.SessionTTL = time.Minute
		ws := NewServerWithConfig(cfg)
		circ := algorithms.GHZ(3)
		sess := newSimSession(circ, circ.QASM(), "", 1, cfg.MaxNodes)
		ws.instrument("leakcheck", sess)
		ws.sims.reg.put("leakcheck", sess, time.Now())
		ws.reapIdle(time.Now().Add(cfg.SessionTTL + time.Minute))
		// Close must wait for the reaper AND flush the spill write that
		// the eviction just scheduled.
		ws.Close()
		if got := ws.SpillStore().Len(); got != 1 {
			t.Fatalf("iteration %d: Close lost the in-flight spill (store has %d)", i, got)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
