package bench

// Kernel study: quantify the direct gate-application kernel against
// the MakeGateDD+MultMV baseline it replaces on the simulation hot
// path.

import (
	"fmt"
	"io"
	"math/cmplx"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
)

// kernelScenario is one before/after timing pair: the same circuit run
// through the generic MakeGateDD+MultMV path and through the ApplyGate
// kernel.
type kernelScenario struct {
	name string
	circ *qc.Circuit
	reps int // simulator runs per timing sample, amortizing setup
}

// qaoaCircuit builds a MaxCut ring ansatz with two distinct layers —
// the parameterized sweep workload of A-series experiments.
func qaoaCircuit(n int) *qc.Circuit {
	circ, err := algorithms.QAOAMaxCut(algorithms.Ring(n),
		[]float64{0.7, 1.3}, []float64{0.4, 0.9})
	if err != nil {
		panic(err)
	}
	return circ
}

func timeSim(circ *qc.Circuit, reps int, opts ...sim.Option) time.Duration {
	return timeIt(func() {
		for r := 0; r < reps; r++ {
			s := sim.New(circ, opts...)
			if _, err := s.RunToEnd(); err != nil {
				panic(err)
			}
		}
	})
}

// runK1 measures the ApplyGate kernel against the generic path on the
// GHZ, QAOA and random-entangled scenarios and cross-checks that both
// paths produce identical final amplitudes.
func runK1(w io.Writer) (Summary, error) {
	scenarios := []kernelScenario{
		{"ghz20", algorithms.GHZ(20), 20},
		{"qaoa12", qaoaCircuit(12), 1},
		{"entangled12", algorithms.Entangled(12, 5, 3), 1},
	}
	fmt.Fprintf(w, "%-14s %14s %14s %10s\n", "scenario", "generic", "kernel", "speedup")
	sum := Summary{}
	best := 0.0
	for _, sc := range scenarios {
		// Differential cross-check before timing: the kernel must be
		// bit-identical to the oracle on the canonical amplitudes.
		fast := sim.New(sc.circ)
		if _, err := fast.RunToEnd(); err != nil {
			return nil, err
		}
		slow := sim.New(sc.circ, sim.WithGenericApply())
		if _, err := slow.RunToEnd(); err != nil {
			return nil, err
		}
		a, b := fast.Amplitudes(), slow.Amplitudes()
		for i := range a {
			if cmplx.Abs(a[i]-b[i]) > 1e-10 {
				return nil, fmt.Errorf("%s: kernel amplitude %d deviates from generic", sc.name, i)
			}
		}
		generic := timeSim(sc.circ, sc.reps, sim.WithGenericApply())
		kernel := timeSim(sc.circ, sc.reps)
		speedup := float64(generic) / float64(kernel)
		fmt.Fprintf(w, "%-14s %14s %14s %9.2fx\n", sc.name, generic, kernel, speedup)
		sum["speedup_"+sc.name] = speedup
		if speedup > best {
			best = speedup
		}
	}
	sum["speedup_best"] = best
	if best < 0.8 {
		return nil, fmt.Errorf("kernel slower than the generic path on every scenario (best %.2fx)", best)
	}
	return sum, nil
}
