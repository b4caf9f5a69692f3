package cli

// -metrics-dump support shared by the CLI tools: a private registry
// fed by the process-wide engine tracer, printed as a Prometheus text
// snapshot when the run finishes. The tools and the web server expose
// the same metric families, so a run's numbers can be compared
// directly against a production scrape.

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

// newMetricsDumper installs a process-wide default tracer feeding a
// fresh registry, so every dd.Pkg the run creates — including ones
// built deep inside the sim/verify/bench harnesses — reports its
// operation latencies here.
func newMetricsDumper() *metricsDumper {
	reg := obs.NewRegistry()
	coll := obs.NewDDCollector(reg)
	dd.SetDefaultTracer(coll.Tracer())
	return &metricsDumper{reg: reg, coll: coll}
}

// record folds one engine's final statistics into the gauge view.
// Only packages the tool holds a handle on can be recorded; latency
// histograms cover every package regardless.
func (m *metricsDumper) record(st dd.Stats) {
	m.agg = m.agg.Add(st)
	m.pkgs++
}

// dump detaches the tracer and writes the Prometheus snapshot.
func (m *metricsDumper) dump(w io.Writer) {
	dd.SetDefaultTracer(nil)
	if m.pkgs > 1 {
		// Load factors are per-package ratios; expose the mean.
		m.agg.UniqueLoadV /= float64(m.pkgs)
		m.agg.UniqueLoadM /= float64(m.pkgs)
	}
	m.coll.Record(m.agg)
	fmt.Fprintln(w, "# metrics snapshot (Prometheus text format)")
	_ = m.reg.WritePrometheus(w)
}
