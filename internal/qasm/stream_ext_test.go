package qasm_test

import (
	"os"
	"runtime"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/qasm"
	"quantumdd/internal/qc"
	"quantumdd/internal/web"
)

// lowered rewrites gates with more than two controls, which the QASM
// writer cannot spell, into Toffoli V-chains over clean ancillas added
// above the circuit's qubits (a multi-controlled Z as H·MCX·H), so
// that the exported source is what a user would paste.
func lowered(c *qc.Circuit) *qc.Circuit {
	anc := 0
	for _, op := range c.Ops {
		anc = max(anc, len(op.Controls)-2)
	}
	out := qc.New(c.NQubits+anc, c.NClbits)
	out.Name = c.Name
	for _, op := range c.Ops {
		if op.Kind != qc.KindGate || len(op.Controls) < 2 || (op.Gate == qc.X && len(op.Controls) == 2) {
			out.Ops = append(out.Ops, op)
			continue
		}
		t := op.Targets[0]
		if op.Gate == qc.Z {
			out.H(t)
		}
		for _, k := range op.Controls {
			if k.Neg {
				out.X(k.Qubit)
			}
		}
		q := func(i int) int { return op.Controls[i].Qubit }
		m, a := len(op.Controls), c.NQubits
		if m == 2 {
			out.CCX(q(0), q(1), t)
		} else {
			out.CCX(q(0), q(1), a)
			for i := 2; i < m-1; i++ {
				out.CCX(q(i), a+i-2, a+i-1)
			}
			out.CCX(q(m-1), a+m-3, t)
			for i := m - 2; i >= 2; i-- {
				out.CCX(q(i), a+i-2, a+i-1)
			}
			out.CCX(q(0), q(1), a)
		}
		for _, k := range op.Controls {
			if k.Neg {
				out.X(k.Qubit)
			}
		}
		if op.Gate == qc.Z {
			out.H(t)
		}
	}
	return out
}

// loweredSources are the QASM texts of the circuits the benchmark
// workloads simulate.
func loweredSources() map[string]string {
	return map[string]string{
		"qft":    lowered(algorithms.QFT(8)).QASM(),
		"grover": lowered(algorithms.Grover(7, 93)).QASM(),
		"adder":  lowered(algorithms.Adder(6)).QASM(),
		"qpe":    lowered(algorithms.QPE(10, 0.3)).QASM(),
		"ghz":    lowered(algorithms.GHZ(20)).QASM(),
		"random": lowered(algorithms.RandomCircuit(8, 12, 7)).QASM(),
	}
}

// TestGroverFixtureIsCurrent keeps testdata/grover7_lowered.qasm, the
// source the root package's BenchmarkMicroParseGrover7 parses, equal
// to the lowered Grover(7) source the benchmark workloads send.
func TestGroverFixtureIsCurrent(t *testing.T) {
	data, err := os.ReadFile("../../testdata/grover7_lowered.qasm")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != loweredSources()["grover"] {
		t.Fatal("testdata/grover7_lowered.qasm differs from the lowered Grover(7) source; regenerate it from loweredSources")
	}
}

// TestStreamingMatchesReferenceOnCircuits compares the streaming
// parser with the lex-everything-first reference on every built-in
// example and on the lowered benchmark circuits.
func TestStreamingMatchesReferenceOnCircuits(t *testing.T) {
	sources := loweredSources()
	for _, ex := range web.Examples() {
		sources[ex.Name] = ex.Code
	}
	for name, src := range sources {
		got, gerr := qasm.Parse(src)
		want, werr := qasm.RefParseWithIncludes(src, nil)
		if gerr != nil || werr != nil {
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("%s: streaming error %v, reference error %v", name, gerr, werr)
			}
			continue
		}
		if qasm.CircuitDigest(got) != qasm.CircuitDigest(want) || got.QASM() != want.QASM() {
			t.Fatalf("%s: circuits differ\nstreaming:\n%s\nreference:\n%s", name, qasm.CircuitDigest(got), qasm.CircuitDigest(want))
		}
		qasm.CheckOps(t, got)
	}
}

// TestParseAllocBytes guards the heap bytes and allocations of parsing
// the lowered Grover(7) source the batch benchmark sends. The bounds
// are the measured values plus about 20 %; the op array alone is
// about 53 kB of the measured 70.3 kB.
func TestParseAllocBytes(t *testing.T) {
	const (
		maxBytes  = 85_000
		maxAllocs = 10
	)
	src := loweredSources()["grover"]
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := qasm.Parse(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perParse := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("%.0f heap bytes, %d allocations per parse of %d source bytes", perParse, allocs, len(src))
	if perParse > maxBytes {
		t.Errorf("%.0f heap bytes per parse, bound %d", perParse, maxBytes)
	}
	if allocs > maxAllocs {
		t.Errorf("%d allocations per parse, bound %d", allocs, maxAllocs)
	}
}
