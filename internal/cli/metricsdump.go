package cli

// -metrics-dump support shared by the CLI tools: a private registry
// fed by the run's engine observer (observe.go), printed as a
// Prometheus text snapshot when the run finishes. The tools and the
// web server expose the same metric families, so a run's numbers can
// be compared directly against a production scrape.

import (
	"fmt"
	"io"

	"quantumdd/internal/dd"
	"quantumdd/internal/obs"
)

type metricsDumper struct {
	reg  *obs.Registry
	coll *obs.DDCollector
	agg  dd.Stats
	pkgs int
}

// newMetricsDumper creates a fresh registry with the dd metric
// families; observeRun feeds its latency histograms from every dd.Pkg
// the run creates.
func newMetricsDumper() *metricsDumper {
	reg := obs.NewRegistry()
	return &metricsDumper{reg: reg, coll: obs.NewDDCollector(reg)}
}

// record folds one engine's final statistics into the gauge view.
// Only packages the tool holds a handle on can be recorded; latency
// histograms cover every package regardless.
func (m *metricsDumper) record(st dd.Stats) {
	m.agg = m.agg.Add(st)
	m.pkgs++
}

// dump writes the Prometheus snapshot.
func (m *metricsDumper) dump(w io.Writer) {
	if m.pkgs > 1 {
		// Load factors are per-package ratios; expose the mean.
		m.agg.UniqueLoadV /= float64(m.pkgs)
		m.agg.UniqueLoadM /= float64(m.pkgs)
	}
	m.coll.Record(m.agg)
	fmt.Fprintln(w, "# metrics snapshot (Prometheus text format)")
	_ = m.reg.WritePrometheus(w)
}
