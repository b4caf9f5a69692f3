package web

// Readiness gating end-to-end: warmup, component probes under fault
// injection, custom probes, SLO burn, and the watchdog's spill
// corruption rule.

import (
	"errors"
	"net/http"
	"testing"
	"time"

	"quantumdd/internal/snapshot"
	"quantumdd/internal/snapshot/faultfs"
)

func TestHealthzAlwaysOK(t *testing.T) {
	_, srv := newSpillTestServer(t, nil)
	var body map[string]interface{}
	resp := get(t, srv, "/healthz", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz status %d", resp.StatusCode)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz body %v", body)
	}
}

func TestReadyzWarmupThenReady(t *testing.T) {
	ws, srv := newSpillTestServer(t, nil)

	// Before the first telemetry sweep the replica must not be ready:
	// the SLO math has no window to judge yet.
	var ready readyResponse
	resp := get(t, srv, "/readyz", &ready)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-warmup /readyz status %d, want 503", resp.StatusCode)
	}
	if ready.Ready {
		t.Fatal("pre-warmup readyz reports ready")
	}
	warm := false
	for _, p := range ready.Probes {
		if p.Name == "telemetry" && !p.OK {
			warm = true
		}
	}
	if !warm {
		t.Fatalf("telemetry probe not failing during warmup: %+v", ready.Probes)
	}

	// One sweep completes the warmup.
	ws.sampleTelemetry(time.Now())
	ready = readyResponse{}
	resp = get(t, srv, "/readyz", &ready)
	if resp.StatusCode != http.StatusOK || !ready.Ready {
		t.Fatalf("post-warmup /readyz status %d ready=%v: %+v", resp.StatusCode, ready.Ready, ready)
	}
	if ready.SLO == nil || ready.SLO.Burning {
		t.Fatalf("SLO section wrong on a healthy replica: %+v", ready.SLO)
	}
}

func TestReadyzDegradesAndRecoversOnSpillFault(t *testing.T) {
	ws, srv := newSpillTestServer(t, nil)
	ws.sampleTelemetry(time.Now())

	// Inject a persistent write failure — the disk went read-only.
	ffs := faultfs.New(snapshot.OSFS{})
	st, err := snapshot.OpenStore(ws.cfg.SpillDir, 0, ffs)
	if err != nil {
		t.Fatal(err)
	}
	ws.spill.store = st
	ffs.SetFailAllWrites(true)

	var ready readyResponse
	resp := get(t, srv, "/readyz", &ready)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with dead spill dir: status %d, want 503", resp.StatusCode)
	}
	var spillProbe *probeStatus
	for i := range ready.Probes {
		if ready.Probes[i].Name == "spill" {
			spillProbe = &ready.Probes[i]
		}
	}
	if spillProbe == nil || spillProbe.OK {
		t.Fatalf("spill probe did not fail: %+v", ready.Probes)
	}

	// Recovery: the fault clears and readiness flips back without a
	// restart.
	ffs.SetFailAllWrites(false)
	ready = readyResponse{}
	resp = get(t, srv, "/readyz", &ready)
	if resp.StatusCode != http.StatusOK || !ready.Ready {
		t.Fatalf("/readyz after recovery: status %d ready=%v", resp.StatusCode, ready.Ready)
	}
}

func TestReadyzCustomProbe(t *testing.T) {
	ws, srv := newSpillTestServer(t, nil)
	ws.sampleTelemetry(time.Now())

	ws.SetReadinessProbe("admin", func() error { return errors.New("admin listener down") })
	var ready readyResponse
	if resp := get(t, srv, "/readyz", &ready); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failing custom probe: status %d, want 503", resp.StatusCode)
	}
	found := false
	for _, p := range ready.Probes {
		if p.Name == "admin" && !p.OK && p.Detail == "admin listener down" {
			found = true
		}
	}
	if !found {
		t.Fatalf("custom probe missing from payload: %+v", ready.Probes)
	}

	ws.SetReadinessProbe("admin", nil) // removed
	if resp := get(t, srv, "/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("after probe removal: status %d, want 200", resp.StatusCode)
	}
}

func TestReadyzSLOLatencyBurn(t *testing.T) {
	ws, srv := newSpillTestServer(t, func(cfg *Config) {
		cfg.SLOLatencyP99 = time.Nanosecond // any real request latency burns
	})
	// Land one request in the latency histogram, then sweep so the
	// tsdb window sees it.
	get(t, srv, "/api/examples", nil)
	ws.sampleTelemetry(time.Now())

	var ready readyResponse
	resp := get(t, srv, "/readyz", &ready)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("burning SLO: status %d, want 503", resp.StatusCode)
	}
	if ready.SLO == nil || !ready.SLO.Burning || ready.SLO.P99Seconds <= 0 {
		t.Fatalf("SLO section: %+v", ready.SLO)
	}
}

func TestWatchdogSpillCorruptionRule(t *testing.T) {
	ws, _ := newSpillTestServer(t, nil)
	now := time.Now()
	ws.sampleTelemetry(now)
	if len(ws.WatchdogEvents()) != 0 {
		t.Fatalf("watchdog fired on a healthy server: %+v", ws.WatchdogEvents())
	}
	// A corrupt snapshot surfaces between two sweeps; the Delta-based
	// rule must turn it into an event.
	ws.metrics.corruptions[kindSim].Inc()
	ws.sampleTelemetry(now.Add(ws.cfg.SampleInterval))
	evs := ws.WatchdogEvents()
	if len(evs) != 1 || evs[0].Rule != "spill_corruption" {
		t.Fatalf("watchdog events after corruption: %+v", evs)
	}
}
