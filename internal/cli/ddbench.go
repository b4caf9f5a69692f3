package cli

import (
	"flag"
	"fmt"
	"io"
	"time"

	"quantumdd/internal/bench"
	"quantumdd/internal/obs/tsdb"
)

// RunDdbench is the ddbench tool: regenerate the paper's experiments.
func RunDdbench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ddbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "run only the experiment with this ID (e.g. E6)")
	list := fs.Bool("list", false, "list experiments and exit")
	metricsDump := fs.Bool("metrics-dump", false, "print a Prometheus metrics snapshot of the engines after the run")
	traceOut := fs.String("trace-out", "", "write the run's span timeline to this file as Chrome trace-event JSON")
	sampleInterval := fs.Duration("sample-interval", 0, "run the in-process telemetry sampler at this interval during the experiments (0 = off); pairs a run with and without it to measure sampler overhead")
	baseline := fs.String("baseline", "", "compare the run's summary metrics against this BENCH_prN.json and exit nonzero on regressions (machine-portable metrics only)")
	baselineThreshold := fs.Float64("baseline-threshold", 0.2, "relative tolerance for -baseline comparisons (0.2 = 20%)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var base *bench.BaselineFile
	if *baseline != "" {
		// Load before running so a bad path fails fast, not after
		// minutes of experiments.
		b, err := bench.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "ddbench:", err)
			return 2
		}
		base = b
	}
	checkBaseline := func(current bench.Summary) int {
		if base == nil {
			return 0
		}
		regs := bench.CompareBaseline(base.After.Ddbench, current, *baselineThreshold)
		if len(regs) == 0 {
			fmt.Fprintf(stderr, "baseline %s (PR %d): no regressions past %.0f%%\n",
				*baseline, base.PR, *baselineThreshold*100)
			return 0
		}
		fmt.Fprintf(stderr, "ddbench: %d regression(s) against %s (PR %d):\n",
			len(regs), *baseline, base.PR)
		for _, r := range regs {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
		return 1
	}
	// The experiments build their engines internally; the run observer
	// still reaches them through the process-wide default, so the dump
	// carries the op-latency histograms of the whole run and the
	// sampler sweeps real series, as in the web server.
	var md *metricsDumper
	if *metricsDump || *sampleInterval > 0 {
		md = newMetricsDumper()
	}
	if *metricsDump {
		defer md.dump(stdout)
	}
	if *sampleInterval > 0 {
		store := tsdb.New(md.reg, tsdb.Config{Interval: *sampleInterval})
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(*sampleInterval)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case now := <-t.C:
					store.SampleOnce(now)
				}
			}
		}()
		defer func() {
			close(stop)
			<-done
			fmt.Fprintf(stderr, "telemetry: %d sweep(s), %d series, %d bytes retained\n",
				store.Samples(), store.SeriesCount(), store.RetainedBytes())
		}()
	}
	var to *traceOutput
	if *traceOut != "" {
		// Experiments don't thread a context, so the timeline is the
		// root span with every engine operation as a direct child —
		// still enough to see where a regenerated experiment spends
		// its time, op by op.
		to = newTraceOutput(*traceOut, "ddbench")
		defer to.finish(stderr)
	}
	defer observeRun(md, to)()
	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *exp != "" {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(stderr, "ddbench: unknown experiment %q (use -list)\n", *exp)
			return 2
		}
		fmt.Fprintf(stdout, "=== %s: %s ===\npaper: %s\n", e.ID, e.Title, e.Paper)
		s, err := e.Run(stdout)
		if err != nil {
			fmt.Fprintln(stderr, "ddbench:", err)
			return 1
		}
		bench.PrintSummary(stdout, s)
		return checkBaseline(s)
	}
	all, err := bench.RunAll(stdout)
	if err != nil {
		fmt.Fprintln(stderr, "ddbench:", err)
		return 1
	}
	merged := bench.Summary{}
	for _, s := range all {
		for k, v := range s {
			merged[k] = v
		}
	}
	return checkBaseline(merged)
}
