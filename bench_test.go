package quantumdd_test

// One benchmark per paper artifact (see DESIGN.md's per-experiment
// index): each BenchmarkE*/BenchmarkA* drives the corresponding
// experiment from internal/bench, so `go test -bench=.` regenerates
// every figure/example of the paper and times it. The Benchmark*Micro
// functions additionally time the hot primitives of the DD engine.

import (
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/bench"
	"quantumdd/internal/dd"
	"quantumdd/internal/linalg"
	"quantumdd/internal/qasm"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
	"quantumdd/internal/vis"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkE1BellStateDD(b *testing.B)             { runExperiment(b, "E1") }
func BenchmarkE2GateDDs(b *testing.B)                 { runExperiment(b, "E2") }
func BenchmarkE3Kron(b *testing.B)                    { runExperiment(b, "E3") }
func BenchmarkE4Simulation(b *testing.B)              { runExperiment(b, "E4") }
func BenchmarkE5QFTFunctionality(b *testing.B)        { runExperiment(b, "E5") }
func BenchmarkE6AlternatingVerification(b *testing.B) { runExperiment(b, "E6") }
func BenchmarkE7Visualization(b *testing.B)           { runExperiment(b, "E7") }
func BenchmarkE8Scaling(b *testing.B)                 { runExperiment(b, "E8") }
func BenchmarkE9Sampling(b *testing.B)                { runExperiment(b, "E9") }
func BenchmarkE10Teleport(b *testing.B)               { runExperiment(b, "E10") }
func BenchmarkA1ToleranceAblation(b *testing.B)       { runExperiment(b, "A1") }
func BenchmarkA2CacheAblation(b *testing.B)           { runExperiment(b, "A2") }
func BenchmarkA3StrategyAblation(b *testing.B)        { runExperiment(b, "A3") }
func BenchmarkA4NormalizationAblation(b *testing.B)   { runExperiment(b, "A4") }
func BenchmarkA5ApproximationSweep(b *testing.B)      { runExperiment(b, "A5") }
func BenchmarkA6VariableOrderSifting(b *testing.B)    { runExperiment(b, "A6") }
func BenchmarkK1KernelVsGeneric(b *testing.B)         { runExperiment(b, "K1") }

// --- micro benchmarks of the DD engine primitives ---

// BenchmarkMicroGHZSimulation measures DD simulation of a structured
// 20-qubit state, where diagrams stay linear in n.
func BenchmarkMicroGHZSimulation(b *testing.B) {
	circ := algorithms.GHZ(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(circ)
		if _, err := s.RunToEnd(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroDDvsDense race: DD simulation of QFT(10) against the
// dense in-place baseline — the crossover study behind E8.
func BenchmarkMicroQFT10DD(b *testing.B) {
	circ := algorithms.QFT(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(circ)
		if _, err := s.RunToEnd(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroQFT10Dense(b *testing.B) {
	circ := algorithms.QFT(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := linalg.ZeroState(circ.NQubits)
		for j := range circ.Ops {
			op := &circ.Ops[j]
			if op.Kind != qc.KindGate {
				continue
			}
			var pos []int
			for _, c := range op.Controls {
				pos = append(pos, c.Qubit)
			}
			if op.Gate == qc.Swap {
				x := qc.Matrix2(qc.X, nil)
				a, t := op.Targets[0], op.Targets[1]
				linalg.ApplyControlledGate(v, x, t, append(append([]int{}, pos...), a), nil)
				linalg.ApplyControlledGate(v, x, a, append(append([]int{}, pos...), t), nil)
				linalg.ApplyControlledGate(v, x, t, append(append([]int{}, pos...), a), nil)
				continue
			}
			linalg.ApplyControlledGate(v, qc.Matrix2(op.Gate, op.Params), op.Targets[0], pos, nil)
		}
	}
}

// BenchmarkMicroMultMV times a single gate application on a wide
// structured state.
func BenchmarkMicroMultMV(b *testing.B) {
	p := dd.New(24)
	circ := algorithms.GHZ(24)
	s := sim.New(circ)
	if _, err := s.RunToEnd(); err != nil {
		b.Fatal(err)
	}
	state := s.State()
	pkg := s.Pkg()
	h := pkg.MakeGateDD(dd.GateMatrix(qc.Matrix2(qc.H, nil)), 12)
	_ = p
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pkg.MultMV(h, state)
	}
}

// BenchmarkMicroApplyGate times the direct gate-application kernel on
// the same wide structured state as BenchmarkMicroMultMV — the same
// logical operation without the matrix diagram.
func BenchmarkMicroApplyGate(b *testing.B) {
	s := sim.New(algorithms.GHZ(24))
	if _, err := s.RunToEnd(); err != nil {
		b.Fatal(err)
	}
	state := s.State()
	pkg := s.Pkg()
	h := dd.GateMatrix(qc.Matrix2(qc.H, nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pkg.ApplyGate(state, h, 12)
	}
}

// BenchmarkMicroGateDDMultMV is the full generic baseline the kernel
// replaces: fetch (or build) the gate diagram, then multiply.
func BenchmarkMicroGateDDMultMV(b *testing.B) {
	s := sim.New(algorithms.GHZ(24))
	if _, err := s.RunToEnd(); err != nil {
		b.Fatal(err)
	}
	state := s.State()
	pkg := s.Pkg()
	h := dd.GateMatrix(qc.Matrix2(qc.H, nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pkg.MultMV(pkg.MakeGateDD(h, 12), state)
	}
}

// rotationLadderCirc builds the compiled-circuit shape dominated by
// Euler rotations: per layer an rz·ry·rz run on every qubit, then a CX
// ring.
func rotationLadderCirc(n, layers int) *qc.Circuit {
	c := qc.New(n, 0)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			a := 0.3 + 0.1*float64(l*n+q)
			c.Gate(qc.RZ, []float64{a}, q)
			c.Gate(qc.RY, []float64{a / 2}, q)
			c.Gate(qc.RZ, []float64{a / 3}, q)
		}
		for q := 0; q < n; q++ {
			c.CX(q, (q+1)%n)
		}
	}
	return c
}

// BenchmarkMicroSimRotations times the rotation ladder.
func BenchmarkMicroSimRotations(b *testing.B) {
	circ := rotationLadderCirc(12, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(circ)
		if _, err := s.RunToEnd(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroSimGHZGeneric pins the pre-kernel simulation path so
// the GHZ pair (with BenchmarkMicroGHZSimulation, which now uses the
// kernel) tracks the hot-path speedup end to end.
func BenchmarkMicroSimGHZGeneric(b *testing.B) {
	circ := algorithms.GHZ(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(circ, sim.WithGenericApply())
		if _, err := s.RunToEnd(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroAddV times vector addition of two structurally
// distinct wide states (GHZ ± phase layer), the second hot primitive
// of DD simulation next to MultMV.
func BenchmarkMicroAddV(b *testing.B) {
	s := sim.New(algorithms.GHZ(24))
	if _, err := s.RunToEnd(); err != nil {
		b.Fatal(err)
	}
	pkg := s.Pkg()
	a := s.State()
	t := pkg.MakeGateDD(dd.GateMatrix(qc.Matrix2(qc.T, nil)), 7)
	c := pkg.MultMV(t, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pkg.AddV(a, c)
	}
}

// BenchmarkMicroSample times single-path weak simulation on GHZ(24).
func BenchmarkMicroSample(b *testing.B) {
	s := sim.New(algorithms.GHZ(24))
	if _, err := s.RunToEnd(); err != nil {
		b.Fatal(err)
	}
	state := s.State()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dd.Sample(state, rng)
	}
}

// BenchmarkMicroVerifyQFT6 times the proportional alternating check.
func BenchmarkMicroVerifyQFT6(b *testing.B) {
	qft := algorithms.QFT(6)
	comp := algorithms.QFTCompiled(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := verify.Check(qft, comp, verify.Proportional)
		if err != nil || !res.Equivalent {
			b.Fatalf("verification failed: %v %v", res, err)
		}
	}
}

// BenchmarkMicroVerifyQFT6Generic is the same check on the generic
// MultMM oracle — the baseline of the matrix-apply kernel pair.
func BenchmarkMicroVerifyQFT6Generic(b *testing.B) {
	qft := algorithms.QFT(6)
	comp := algorithms.QFTCompiled(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := verify.Check(qft, comp, verify.Proportional, verify.WithGenericMM())
		if err != nil || !res.Equivalent {
			b.Fatalf("verification failed: %v %v", res, err)
		}
	}
}

// BenchmarkMicroParseGrover7 times the QASM front end on the lowered
// Grover(7) source the batch benchmark sends; MB/s is source bytes.
func BenchmarkMicroParseGrover7(b *testing.B) {
	src, err := os.ReadFile("testdata/grover7_lowered.qasm")
	if err != nil {
		b.Fatal(err)
	}
	code := string(src)
	b.SetBytes(int64(len(code)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qasm.Parse(code); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroRenderQFT times layout + SVG of the 21-node QFT DD.
func BenchmarkMicroRenderQFT(b *testing.B) {
	p := dd.New(3)
	u, _, err := verify.BuildFunctionality(p, algorithms.QFT(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := vis.FromMatrix(u)
		_ = g.SVG(vis.Style{Mode: vis.Colored})
	}
}

// BenchmarkMicroSizeV times the node count of a 14-node GHZ(14) state,
// on a fresh walker and right after a walk of a 131071-node dense
// state. A walker resets only the set slots it filled, and one whose
// set grew past the pooling bound is dropped, so the second case must
// cost no more than the first.
func BenchmarkMicroSizeV(b *testing.B) {
	s := sim.New(algorithms.GHZ(14))
	if _, err := s.RunToEnd(); err != nil {
		b.Fatal(err)
	}
	small := s.State()
	const n = 17
	rng := rand.New(rand.NewSource(1))
	amps := make([]complex128, 1<<n)
	for i := range amps {
		amps[i] = complex(rng.Float64()+0.1, rng.Float64())
	}
	large, err := dd.New(n).FromVector(amps)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		prepare func()
	}{
		// Two collections empty the walker pool.
		{"fresh", func() { runtime.GC(); runtime.GC() }},
		{"after64k", func() {
			if got := dd.SizeV(large); got != 1<<n-1 {
				b.Fatalf("large state has %d nodes, want %d", got, 1<<n-1)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.prepare()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = dd.SizeV(small)
			}
		})
	}
}

// BenchmarkMicroSizeM times the node count of the 1365-node QFT(6)
// functionality: the walk a verify build runs after every gate.
func BenchmarkMicroSizeM(b *testing.B) {
	u, _, err := verify.BuildFunctionality(dd.New(6), algorithms.QFT(6))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dd.SizeM(u)
	}
}

// BenchmarkMicroFunctionalityGrover6 times building Grover(6)'s system
// matrix on a fresh package: gate application, weight canonicalization
// in the complex table and one SizeM walk per gate.
func BenchmarkMicroFunctionalityGrover6(b *testing.B) {
	circ := algorithms.Grover(6, 45)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := verify.BuildFunctionality(dd.New(circ.NQubits), circ); err != nil {
			b.Fatal(err)
		}
	}
}
