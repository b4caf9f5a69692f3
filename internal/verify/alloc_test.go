package verify

import (
	"bytes"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
)

// TestFunctionalityAllocs bounds the allocations of building Grover(6)'s
// functionality on a fresh package. Canonical weights live in the flat
// complex table and node walks reuse pooled hash-addressed sets, so
// neither allocates per value or per gate; a table that allocated per
// distinct real would cost about 2400 allocations here. Functionality
// also skips the per-gate records, whose gate strings allocate.
func TestFunctionalityAllocs(t *testing.T) {
	circ := algorithms.Grover(6, 45)
	for _, tc := range []struct {
		name  string
		limit float64
		build func(*dd.Pkg) error
	}{
		{"BuildFunctionality", 1100, func(p *dd.Pkg) error { _, _, err := BuildFunctionality(p, circ); return err }},
		{"Functionality", 200, func(p *dd.Pkg) error { _, err := Functionality(p, circ); return err }},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if err := tc.build(dd.New(circ.NQubits)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Grover(6) %s: %.0f allocs", tc.name, allocs)
		if allocs > tc.limit && !ddPoison {
			t.Fatalf("Grover(6) %s made %.0f allocations, limit %.0f", tc.name, allocs, tc.limit)
		}
	}
}

// lowerMCZ returns c with every Z of three or more controls replaced
// by H, a Toffoli V-chain over clean ancillas above c's qubits, and H:
// the spelling a circuit gets when multi-controlled gates are lowered
// to Toffolis for OpenQASM.
func lowerMCZ(c *qc.Circuit) *qc.Circuit {
	anc := 0
	for _, op := range c.Ops {
		anc = max(anc, len(op.Controls)-2)
	}
	out := qc.New(c.NQubits+anc, c.NClbits)
	out.Name = c.Name + "_lowered"
	for _, op := range c.Ops {
		if op.Kind != qc.KindGate || op.Gate != qc.Z || len(op.Controls) < 3 {
			out.Ops = append(out.Ops, op)
			continue
		}
		ctl, t, m := op.Controls, op.Targets[0], len(op.Controls)
		flip := func() {
			for _, k := range ctl {
				if k.Neg {
					out.X(k.Qubit)
				}
			}
		}
		flip()
		out.H(t)
		a := c.NQubits
		out.CCX(ctl[0].Qubit, ctl[1].Qubit, a)
		for i := 2; i < m-1; i++ {
			out.CCX(ctl[i].Qubit, a+i-2, a+i-1)
		}
		out.CCX(ctl[m-1].Qubit, a+m-3, t)
		for i := m - 2; i >= 2; i-- {
			out.CCX(ctl[i].Qubit, a+i-2, a+i-1)
		}
		out.CCX(ctl[0].Qubit, ctl[1].Qubit, a)
		out.H(t)
		flip()
	}
	return out
}

// TestFunctionalityMatchesBuild checks that Functionality, which skips
// the per-gate records, returns the root BuildFunctionality returns,
// bit for bit in the serialized diagram.
func TestFunctionalityMatchesBuild(t *testing.T) {
	inv, err := algorithms.QFT(5).Inverse()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*qc.Circuit{
		lowerMCZ(algorithms.Grover(5, 0b10110)),
		algorithms.Adder(8),
		algorithms.QFT(5),
		inv,
	} {
		p, q := dd.New(c.NQubits), dd.New(c.NQubits)
		want, recs, err := BuildFunctionality(p, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Functionality(q, c)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != c.NumGates() {
			t.Fatalf("%s: %d records for %d gates", c.Name, len(recs), c.NumGates())
		}
		if !bytes.Equal(q.AppendMatrixBinary(nil, got), p.AppendMatrixBinary(nil, want)) {
			t.Fatalf("%s: Functionality root differs from BuildFunctionality's", c.Name)
		}
		t.Logf("%s: %d qubits, %d gates, %d nodes", c.Name, c.NQubits, c.NumGates(), dd.SizeM(got))
	}
}
