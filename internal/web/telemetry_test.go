package web

import (
	"testing"
	"time"

	"quantumdd/internal/dd"
)

// TestWatchdogCTHitCollapseRule drives the per-table compute-table
// gauges through the regimes of the ct_hit_collapse rule, which reads
// Δhits/Δlookups of the apply_v table over the window: a healthy
// table, a table under the load floor, a verify-only load, and a
// collapsed apply_v table whose misses the addition tables' hits would
// hide in the all-tables ratio. Only the collapse fires.
func TestWatchdogCTHitCollapseRule(t *testing.T) {
	type load struct{ applyLookups, applyHits, addLookups, addHits uint64 }
	// Each scenario runs on a fresh server: the rule's window is the
	// whole SLO window, so earlier samples would contaminate it.
	run := func(t *testing.T, samples ...load) []string {
		t.Helper()
		ws, _ := newTracedServer(t)
		now := time.Now()
		for _, l := range samples {
			var st dd.Stats
			st.Tables[dd.TableApplyV] = dd.TableStats{Lookups: l.applyLookups, Hits: l.applyHits}
			st.Tables[dd.TableAddV] = dd.TableStats{Lookups: l.addLookups, Hits: l.addHits}
			ws.metrics.dd.Record(st.Add(dd.Stats{})) // Add derives the aggregates
			ws.tele.store.SampleOnce(now)
			ws.tele.dog.Evaluate(now)
			now = now.Add(ws.cfg.SampleInterval)
		}
		var rules []string
		for _, ev := range ws.WatchdogEvents() {
			rules = append(rules, ev.Rule)
		}
		return rules
	}

	// Half the apply lookups hit.
	if evs := run(t, load{}, load{5000, 2500, 0, 0}); len(evs) != 0 {
		t.Fatalf("collapse fired on a healthy apply table: %v", evs)
	}
	// Every lookup misses, but under the load floor.
	if evs := run(t, load{}, load{500, 0, 0, 0}); len(evs) != 0 {
		t.Fatalf("collapse fired under the load floor: %v", evs)
	}
	// A verify-only load: no apply_v lookups at all.
	if evs := run(t, load{}, load{0, 0, 100000, 100}); len(evs) != 0 {
		t.Fatalf("collapse fired without apply_v lookups: %v", evs)
	}
	// Lookups that predate the window do not count: the table was busy
	// and healthy, then went quiet.
	if evs := run(t, load{50000, 25000, 0, 0}, load{50000, 25000, 0, 0}); len(evs) != 0 {
		t.Fatalf("collapse fired on an idle window: %v", evs)
	}
	// apply_v collapses to 0.2 % while the addition table hits 90 %:
	// the all-tables ratio reads 0.86, the apply table's 0.002.
	evs := run(t, load{}, load{5000, 10, 100000, 90000})
	if len(evs) != 1 || evs[0] != "ct_hit_collapse" {
		t.Fatalf("watchdog events after an apply-table collapse: %v", evs)
	}
}
