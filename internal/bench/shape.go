package bench

// Shape-profiler study (PR 10): quantify the overhead of the
// structural sampling stride on simulation workloads, and record the
// identity-padding fractions and sharing factors of the worked
// examples — the numbers EXPERIMENTS.md cites and BENCH_pr10.json
// guards.

import (
	"fmt"
	"io"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
)

// shapeStride is the sampling interval the overhead is measured at —
// the web server's default (see internal/web).
const shapeStride = 32

// identityFraction builds circ's functionality matrix and profiles it.
func identityFraction(circ *qc.Circuit) (dd.ShapeProfile, error) {
	p := dd.New(circ.NQubits)
	u, err := verify.Functionality(p, circ)
	if err != nil {
		return dd.ShapeProfile{}, err
	}
	return p.ShapeM(u), nil
}

// runS1 times the profiling stride against the disabled path on the
// kernel-study workloads and profiles the canonical examples.
func runS1(w io.Writer) (Summary, error) {
	sum := Summary{}

	scenarios := []kernelScenario{
		{"ghz20", algorithms.GHZ(20), 20},
		{"qaoa12", qaoaCircuit(12), 2},
		{"entangled12", algorithms.Entangled(12, 5, 3), 2},
	}
	fmt.Fprintf(w, "sampling overhead at stride %d (per-step check is one branch when off)\n", shapeStride)
	fmt.Fprintf(w, "%-14s %14s %14s %10s\n", "scenario", "off", "on", "overhead")
	var offTotal, onTotal float64
	for _, sc := range scenarios {
		// One untimed pass first: the leg measured first otherwise pays
		// the process warm-up (heap growth, page faults) alone and the
		// overhead comes out negative.
		timeSim(sc.circ, 1)
		off := timeSim(sc.circ, sc.reps)
		on := timeSim(sc.circ, sc.reps, sim.WithShapeInterval(shapeStride))
		pct := (on.Seconds() - off.Seconds()) / off.Seconds() * 100
		fmt.Fprintf(w, "%-14s %14s %14s %9.2f%%\n", sc.name, off, on, pct)
		sum["S1_"+sc.name+"_off_ms"] = float64(off.Microseconds()) / 1000
		sum["S1_"+sc.name+"_on_ms"] = float64(on.Microseconds()) / 1000
		offTotal += off.Seconds()
		onTotal += on.Seconds()
	}
	overhead := (onTotal - offTotal) / offTotal * 100
	sum["shape_overhead_pct"] = overhead
	fmt.Fprintf(w, "total overhead: %.2f%%\n\n", overhead)

	// Structural profiles of the worked examples. The identity-padding
	// fraction weighs identity-chain nodes by their share of the
	// decision-tree expansion; Grover's diffusion touches every qubit,
	// so only the QFT examples retain identity padding mid-register.
	examples := []struct {
		name string
		circ *qc.Circuit
	}{
		{"bell", algorithms.Bell()},
		{"ghz12", algorithms.GHZ(12)},
		{"qft7", algorithms.QFT(7)},
		{"grover5", algorithms.Grover(5, 13)},
	}
	fmt.Fprintf(w, "%-10s %8s %8s %10s %10s\n", "example", "nodes", "widest", "sharing", "identity")
	for _, ex := range examples {
		p, err := identityFraction(ex.circ)
		if err != nil {
			return sum, err
		}
		fmt.Fprintf(w, "%-10s %8d %8d %9.1fx %9.1f%%\n",
			ex.name, p.Nodes, p.MaxLevelNodes, p.SharingFactor, p.IdentityFraction*100)
		sum["ident_frac_"+ex.name] = p.IdentityFraction
		sum["sharing_"+ex.name] = p.SharingFactor
	}
	return sum, nil
}
