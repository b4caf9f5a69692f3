// Package cli implements the command-line tools as testable entry
// points: each Run* function parses its own flag set, writes to the
// supplied streams, and returns a process exit code. The thin mains
// under cmd/ delegate here.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/cmplx"
	"math/rand"
	"sort"

	"quantumdd/internal/cnum"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
	"quantumdd/internal/vis"
)

// RunDdsim is the ddsim tool: simulate a circuit file on decision
// diagrams and report results.
func RunDdsim(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ddsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "measurement sampling seed")
	shots := fs.Int("shots", 0, "sample the circuit this many times and print a histogram over the qubits (a circuit that measures, resets or branches is run once per shot)")
	amplitudes := fs.Bool("amplitudes", false, "print the dense final state (small circuits)")
	trace := fs.Bool("trace", false, "print one line per executed operation")
	stats := fs.Bool("stats", false, "print circuit and DD statistics")
	draw := fs.Bool("draw", false, "print the final decision diagram as ASCII")
	format := fs.String("format", "", "input format: qasm, real, or auto")
	noise := fs.Float64("noise", 0, "depolarizing noise probability per gate operand (enables trajectory mode)")
	trajectories := fs.Int("trajectories", 1000, "Monte-Carlo trajectories in noise mode")
	workers := fs.Int("workers", 0, "trajectory pool width in noise mode and for shots of a measuring circuit (0 = GOMAXPROCS, 1 = sequential; results are bit-identical)")
	metricsDump := fs.Bool("metrics-dump", false, "print a Prometheus metrics snapshot of the engine after the run")
	traceOut := fs.String("trace-out", "", "write the run's span timeline to this file as Chrome trace-event JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ddsim [flags] <circuit.qasm|circuit.real>")
		fs.PrintDefaults()
		return 2
	}
	circ, err := LoadCircuitFile(fs.Arg(0), *format)
	if err != nil {
		fmt.Fprintln(stderr, "ddsim:", err)
		return 1
	}
	var md *metricsDumper
	if *metricsDump {
		md = newMetricsDumper()
		defer md.dump(stdout)
	}
	var to *traceOutput
	if *traceOut != "" {
		to = newTraceOutput(*traceOut, "ddsim")
		defer to.finish(stderr)
	}
	// Deferred last, so the observer is removed before the trace file
	// and the dump are written.
	defer observeRun(md, to)()
	// Any nonzero value, NaN included, takes the noisy path, whose
	// validation rejects probabilities outside [0,1].
	if *noise != 0 {
		return runDdsimNoisy(circ, *noise, *trajectories, *workers, *seed, stdout, stderr)
	}
	return runDdsimOn(to.context(), circ, *seed, *shots, *workers, *amplitudes, *trace, *stats, *draw, md, stdout, stderr)
}

// runDdsimNoisy aggregates Monte-Carlo trajectories under depolarizing
// noise on the replica pool and prints the resulting distribution.
func runDdsimNoisy(circ *qc.Circuit, p float64, trajectories, workers int, seed int64, stdout, stderr io.Writer) int {
	res, err := sim.RunNoisy(circ, sim.NoiseModel{Depolarizing: p}, trajectories, seed, sim.WithWorkers(workers))
	if err != nil {
		fmt.Fprintln(stderr, "ddsim:", err)
		return 1
	}
	fmt.Fprintf(stdout, "noisy simulation: %d trajectories on %d workers, depolarizing p=%g, %d error events, mean %d-qubit DD %.1f nodes\n",
		res.Trajectories, res.Workers, p, res.ErrorEvents, circ.NQubits, res.MeanNodes)
	printHistogram(stdout, res.Counts, res.Trajectories, circ.NQubits, 16)
	return 0
}

// printHistogram prints the sampled basis states of the qubits, most
// frequent first, ties by index, each with its share of the draws.
// With maxRows > 0 it lists at most that many and counts the rest.
func printHistogram(w io.Writer, counts map[int64]int, draws, nqubits, maxRows int) {
	type kv struct {
		idx int64
		n   int
	}
	var rows []kv
	for idx, n := range counts {
		rows = append(rows, kv{idx, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].idx < rows[j].idx
	})
	shown := rows
	if maxRows > 0 && len(rows) > maxRows {
		shown = rows[:maxRows]
	}
	for _, r := range shown {
		fmt.Fprintf(w, "  |%0*b>  %6d  (%.2f%%)\n", nqubits, r.idx, r.n, 100*float64(r.n)/float64(draws))
	}
	if len(rows) > len(shown) {
		fmt.Fprintf(w, "  … %d more outcomes\n", len(rows)-len(shown))
	}
}

func runDdsimOn(ctx context.Context, circ *qc.Circuit, seed int64, shots, workers int, amplitudes, trace, stats, draw bool, md *metricsDumper, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "circuit: %d qubits, %d classical bits, %d operations (%d gates)\n",
		circ.NQubits, circ.NClbits, len(circ.Ops), circ.NumGates())

	s := sim.New(circ, sim.WithSeed(seed))
	if md != nil {
		defer func() { md.record(s.Pkg().Stats()) }()
	}
	for !s.AtEnd() {
		ev, err := s.StepForwardCtx(ctx)
		if err != nil {
			fmt.Fprintln(stderr, "ddsim:", err)
			return 1
		}
		if trace && ev.Op != nil {
			fmt.Fprintf(stdout, "  op %3d  %-32s nodes=%d\n", ev.OpIndex, ev.Op.String(), dd.SizeV(s.State()))
		}
	}
	if circ.NClbits > 0 {
		fmt.Fprint(stdout, "classical register (c[i], -1 = never measured):")
		for i, b := range s.Classical() {
			fmt.Fprintf(stdout, " c[%d]=%d", i, b)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "final DD: %d nodes, peak %d nodes (dense state would hold %d amplitudes)\n",
		dd.SizeV(s.State()), s.PeakNodes(), int64(1)<<uint(circ.NQubits))

	if amplitudes {
		if circ.NQubits > 16 {
			fmt.Fprintf(stderr, "ddsim: refusing to expand %d qubits densely (limit 16)\n", circ.NQubits)
			return 1
		}
		for idx, a := range s.Amplitudes() {
			if cmplx.Abs(a) < 1e-12 {
				continue
			}
			fmt.Fprintf(stdout, "  |%0*b>  %s\n", circ.NQubits, idx, cnum.FormatComplex(a))
		}
	}
	if shots > 0 {
		// The final state of a circuit that measures, resets or
		// branches is one run's collapsed state: such a circuit is run
		// once per shot, on the prefix trie that branches once per
		// outcome. Any other circuit's final state is sampled directly.
		var counts map[int64]int
		if circ.HasNonUnitary() {
			res, err := sim.RunNoisy(circ, sim.NoiseModel{}, shots, seed, sim.WithWorkers(workers))
			if err != nil {
				fmt.Fprintln(stderr, "ddsim:", err)
				return 1
			}
			counts = res.Counts
		} else {
			counts = dd.SampleCounts(s.State(), shots, rand.New(rand.NewSource(seed)))
		}
		fmt.Fprintf(stdout, "samples (%d shots):\n", shots)
		printHistogram(stdout, counts, shots, circ.NQubits, 0)
	}
	if draw {
		fmt.Fprint(stdout, vis.FromVector(s.State()).Text())
	}
	if stats {
		fmt.Fprint(stdout, "circuit stats: ", circStats(s))
		st := s.Pkg().Stats()
		fmt.Fprintf(stdout, "dd stats: vector nodes created=%d unique hits=%d cache hits=%d/%d gc runs=%d recycled=%d table load=%.2f\n",
			st.NodesCreatedV, st.UniqueHitsV, st.CacheHits, st.CacheLookups, st.GCRuns,
			st.NodesRecycledV+st.NodesRecycledM, st.UniqueLoadV)
	}
	return 0
}

func circStats(s *sim.Simulator) string {
	return statsString(s)
}
