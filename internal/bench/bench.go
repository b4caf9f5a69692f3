// Package bench regenerates every figure and worked example of the
// paper (the per-experiment index of DESIGN.md) and the additional
// scaling/ablation studies. Each experiment prints a human-readable
// table to a writer and returns a machine-checkable summary used by
// the repository-level benchmarks and by EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"sort"
)

// Summary carries an experiment's key metrics: scalar values keyed by
// metric name.
type Summary map[string]float64

// Experiment is one reproducible unit: a paper figure/example or a
// supplementary study.
type Experiment struct {
	ID    string
	Title string
	// Paper describes what the paper reports for this artifact.
	Paper string
	Run   func(w io.Writer) (Summary, error)
}

// All lists the experiments in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Bell state decision diagram (Ex. 1/2/6, Fig. 2(a))",
			Paper: "3 nodes; amplitudes 1/√2 on |00⟩ and |11⟩; 50/50 measurement", Run: runE1},
		{ID: "E2", Title: "Gate decision diagrams (Fig. 2(b,c))",
			Paper: "H: 1 node; CNOT: 3 nodes; entries match Fig. 1", Run: runE2},
		{ID: "E3", Title: "Tensor extension H⊗I₂ (Ex. 3/8, Fig. 3)",
			Paper: "terminal-replacement kron; (H⊗I)|00⟩ = 1/√2 [1,0,1,0]", Run: runE3},
		{ID: "E4", Title: "Simulation walk-through (Ex. 5, Fig. 8)",
			Paper: "|00⟩→H→CNOT→measure: dialog 50/50, collapse to |11⟩", Run: runE4},
		{ID: "E5", Title: "QFT functionality (Fig. 5, Fig. 6, Ex. 10/11/14)",
			Paper: "both circuits build the identical 8×8 ω-matrix DD", Run: runE5},
		{ID: "E6", Title: "Alternating verification (Ex. 12, Fig. 9)",
			Paper: "proportional scheme peaks at 9 nodes vs 21 for construction", Run: runE6},
		{ID: "E7", Title: "Visualization styles (Sec. IV-A, Fig. 7)",
			Paper: "classic/colored/modern renderings; HLS phase wheel", Run: runE7},
		{ID: "E8", Title: "Scaling: compact in many cases, exponential worst case (Sec. I/III)",
			Paper: "structured states linear, random states exponential", Run: runE8},
		{ID: "E9", Title: "Weak simulation / sampling (Sec. III-B, [16])",
			Paper: "single-path sampling reproduces the Born distribution", Run: runE9},
		{ID: "E10", Title: "Special operations: teleportation end-to-end (Sec. IV-B)",
			Paper: "measure + classical control + reset preserve the payload", Run: runE10},
		{ID: "A1", Title: "Ablation: complex-number tolerance (ref [14])",
			Paper: "without value identification node sharing degrades", Run: runA1},
		{ID: "A2", Title: "Ablation: compute tables on/off",
			Paper: "caches turn re-application into table lookups", Run: runA2},
		{ID: "A3", Title: "Ablation: verification strategies (ref [20])",
			Paper: "peak size: sequential > one-to-one > proportional", Run: runA3},
		{ID: "A4", Title: "Ablation: vector normalization (footnote 3 vs QMDD max-norm)",
			Paper: "2-norm makes squared weights probabilities, enabling sampling", Run: runA4},
		{ID: "A5", Title: "Extension: approximation by branch pruning",
			Paper: "size/fidelity trade-off against the exponential worst case", Run: runA5},
		{ID: "A6", Title: "Extension: variable order and sifting (Sec. III-C)",
			Paper: "canonicity is relative to the variable order; order can matter exponentially", Run: runA6},
		{ID: "V1", Title: "Verify core: matrix-apply kernel work under every strategy",
			Paper: "identity-stripped matrix apply keeps the alternating checker near the identity", Run: runV1},
		{ID: "N1", Title: "Parallel trajectories: sharded replica pool vs sequential",
			Paper: "one-simulation-per-shot sampling is embarrassingly parallel; results stay bit-identical", Run: runN1},
		{ID: "S1", Title: "Shape profiler: sampling overhead and example structure",
			Paper: "per-level occupancy, sharing, and identity padding at bounded amortized cost", Run: runS1},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment, printing to w, and returns the
// summaries keyed by experiment ID.
func RunAll(w io.Writer) (map[string]Summary, error) {
	out := map[string]Summary{}
	for _, e := range All() {
		fmt.Fprintf(w, "=== %s: %s ===\n", e.ID, e.Title)
		fmt.Fprintf(w, "paper: %s\n", e.Paper)
		s, err := e.Run(w)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out[e.ID] = s
		printSummary(w, s)
		fmt.Fprintln(w)
	}
	return out, nil
}

// PrintSummary writes the one-line machine-parsable "summary:" form
// of s to w — the line the CI smoke guards grep their metrics from.
func PrintSummary(w io.Writer, s Summary) { printSummary(w, s) }

func printSummary(w io.Writer, s Summary) {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "summary:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%g", k, s[k])
	}
	fmt.Fprintln(w)
}
