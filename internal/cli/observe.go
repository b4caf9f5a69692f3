package cli

// One engine observer per CLI run. The tools build their engines deep
// inside the sim, verify and bench harnesses, so the observer is
// installed as the process-wide default that every dd.Pkg the run
// creates inherits, and removed again when the run returns.

import (
	"time"

	"quantumdd/internal/dd"
	"quantumdd/internal/obs"
	"quantumdd/internal/obs/trace"
)

// runObserver feeds the metrics collector (-metrics-dump,
// -sample-interval) and the flight recorder (-trace-out) from one
// hook; either may be nil.
type runObserver struct {
	coll *obs.DDCollector
	rec  *trace.Recorder
}

func (o *runObserver) ObserveOp(op dd.Op, d time.Duration) {
	if o.coll != nil {
		o.coll.ObserveOp(op, d)
	}
	if o.rec != nil {
		o.rec.ObserveOp(op, d)
	}
}

// observeRun installs the run's observer as the process default and
// returns the func that removes it. With neither sink it installs
// nothing.
func observeRun(md *metricsDumper, to *traceOutput) (stop func()) {
	o := &runObserver{}
	if md != nil {
		o.coll = md.coll
	}
	if to != nil {
		o.rec = to.rec
	}
	if o.coll == nil && o.rec == nil {
		return func() {}
	}
	dd.SetDefaultObserver(o)
	return func() { dd.SetDefaultObserver(nil) }
}
