package cli

import (
	"flag"
	"fmt"
	"io"

	"quantumdd/internal/core"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
)

func statsString(s *sim.Simulator) string {
	return qc.ComputeStats(s.Circuit()).String()
}

// RunDdverify is the ddverify tool: decide the equivalence of two
// circuit files. Exit status 0 equivalent, 1 not equivalent, 2 error.
func RunDdverify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ddverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	strategyName := fs.String("strategy", "proportional",
		"construction | sequential | one-to-one | proportional | lookahead")
	trace := fs.Bool("trace", false, "print the per-gate node-count trace")
	diagnose := fs.Bool("diagnose", false, "on non-equivalence, print a counterexample and the HS overlap")
	format := fs.String("format", "", "input format: qasm, real, or auto")
	metricsDump := fs.Bool("metrics-dump", false, "print a Prometheus metrics snapshot of the engine after the run")
	traceOut := fs.String("trace-out", "", "write the run's span timeline to this file as Chrome trace-event JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: ddverify [flags] <left> <right>")
		fs.PrintDefaults()
		return 2
	}
	strategy, err := ParseStrategy(*strategyName)
	if err != nil {
		fmt.Fprintln(stderr, "ddverify:", err)
		return 2
	}
	load := func(path string) (*qc.Circuit, error) {
		circ, err := core.LoadCircuitFile(path, *format)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		circ.Name = path
		return circ, nil
	}
	left, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "ddverify:", err)
		return 2
	}
	right, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "ddverify:", err)
		return 2
	}
	fmt.Fprintf(stdout, "G : %s (%d qubits, %d gates)\n", fs.Arg(0), left.NQubits, left.NumGates())
	fmt.Fprintf(stdout, "G': %s (%d qubits, %d gates)\n", fs.Arg(1), right.NQubits, right.NumGates())
	var md *metricsDumper
	if *metricsDump {
		md = newMetricsDumper()
		defer md.dump(stdout)
	}
	var to *traceOutput
	if *traceOut != "" {
		to = newTraceOutput(*traceOut, "ddverify")
		defer to.finish(stderr)
	}
	defer observeRun(md, to)()
	// Own the engine so its final statistics land in the dump
	// alongside the op-latency histograms the observer collects.
	p := dd.New(left.NQubits)
	res, err := verify.CheckOnCtx(to.context(), p, left, right, strategy)
	if md != nil {
		md.record(p.Stats())
	}
	if err != nil {
		fmt.Fprintln(stderr, "ddverify:", err)
		return 2
	}
	if *trace {
		fmt.Fprintf(stdout, "%-6s %-4s %-36s %6s\n", "step", "side", "gate", "nodes")
		for i, r := range res.Trace {
			fmt.Fprintf(stdout, "%-6d %-4s %-36s %6d\n", i, r.Side, r.Gate, r.Nodes)
		}
	}
	fmt.Fprintf(stdout, "strategy: %s, peak %d nodes, final %d nodes, %d multiplications (%d kernel)\n",
		res.Strategy, res.PeakNodes, res.FinalNodes, res.MultOps, res.KernelOps)
	switch {
	case res.Equivalent && res.UpToGlobalPhase:
		fmt.Fprintln(stdout, "result: EQUIVALENT up to a global phase")
		return 0
	case res.Equivalent:
		fmt.Fprintln(stdout, "result: EQUIVALENT")
		return 0
	default:
		fmt.Fprintln(stdout, "result: NOT EQUIVALENT")
		if *diagnose {
			_, overlap, ce, err := verify.DiagnoseNonEquivalence(left, right)
			if err == nil {
				fmt.Fprintf(stdout, "Hilbert-Schmidt overlap: %.6f\n", overlap)
				if ce != nil {
					fmt.Fprintf(stdout, "counterexample: %s\n", ce)
				}
			}
		}
		return 1
	}
}

// ParseStrategy maps a strategy name onto the verify constant.
func ParseStrategy(name string) (verify.Strategy, error) {
	switch name {
	case "construction":
		return verify.Construction, nil
	case "sequential":
		return verify.Sequential, nil
	case "one-to-one", "onetoone":
		return verify.OneToOne, nil
	case "proportional":
		return verify.Proportional, nil
	case "lookahead":
		return verify.Lookahead, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", name)
	}
}
