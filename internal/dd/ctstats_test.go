package dd_test

import (
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/sim"
	"quantumdd/internal/verify"
)

// ctWorkload is one deterministic run whose compute-table counters
// are pinned; it returns the package it ran on.
type ctWorkload struct {
	name string
	run  func(t *testing.T) *dd.Pkg
}

// ctWorkloads cover every compute table: a lowered Grover(5)
// functionality (matrix apply, split and merge, matrix addition), the
// same build with 256-entry tables (evictions), a GHZ and a QFT
// simulation (vector apply, split and addition), one Kron, one
// conjugate transpose, one Fidelity, and a multiplication run.
func ctWorkloads() []ctWorkload {
	functionality := func(t *testing.T, c *qc.Circuit, ctSize int) (*dd.Pkg, dd.MEdge) {
		p := dd.New(c.NQubits)
		if ctSize > 0 {
			p.SetComputeTableSize(ctSize)
		}
		u, err := verify.Functionality(p, c)
		if err != nil {
			t.Fatal(err)
		}
		return p, u
	}
	simulate := func(t *testing.T, c *qc.Circuit) *dd.Pkg {
		s := sim.New(c)
		if _, err := s.RunToEnd(); err != nil {
			t.Fatal(err)
		}
		return s.Pkg()
	}
	grover := lowerMCZ(algorithms.Grover(5, 0b10110))
	h := dd.GateMatrix(qc.Matrix2(qc.H, nil))
	x := dd.GateMatrix(qc.Matrix2(qc.X, nil))
	return []ctWorkload{
		{"grover5_functionality", func(t *testing.T) *dd.Pkg {
			p, _ := functionality(t, grover, 0)
			return p
		}},
		{"grover5_functionality_ct256", func(t *testing.T) *dd.Pkg {
			p, _ := functionality(t, grover, 256)
			return p
		}},
		{"ghz16_sim", func(t *testing.T) *dd.Pkg {
			return simulate(t, algorithms.GHZ(16))
		}},
		{"qft8_sim", func(t *testing.T) *dd.Pkg {
			c := qc.New(8, 0)
			c.X(0).X(3)
			c.Ops = append(c.Ops, algorithms.QFT(8).Ops...)
			return simulate(t, c)
		}},
		{"kron", func(t *testing.T) *dd.Pkg {
			p := dd.New(6)
			a := p.ApplyGateML(p.IdentUpTo(2), h, 2)
			a = p.ApplyGateML(a, x, 0, dd.Control{Qubit: 2})
			b := p.ApplyGateML(p.IdentUpTo(2), h, 1)
			b = p.ApplyGateML(b, x, 2, dd.Control{Qubit: 1}, dd.Control{Qubit: 0, Neg: true})
			p.KronM(a, b, 3)
			return p
		}},
		{"conj_transpose_qft5", func(t *testing.T) *dd.Pkg {
			p, u := functionality(t, algorithms.QFT(5), 0)
			p.ConjTranspose(u)
			return p
		}},
		{"fidelity", func(t *testing.T) *dd.Pkg {
			p := dd.New(10)
			a := p.ZeroState()
			for q := 0; q < 10; q++ {
				a = p.ApplyGate(a, h, q)
			}
			b := p.ApplyGate(a, x, 4, dd.Control{Qubit: 7})
			p.Fidelity(a, b)
			return p
		}},
		{"mult_qft6", func(t *testing.T) *dd.Pkg {
			p, u := functionality(t, algorithms.QFT(6), 0)
			p.MultMV(p.MultMM(u, u), p.BasisState(5))
			return p
		}},
	}
}

// ctAggregates are the aggregate compute-table counters of a Stats
// snapshot, in a fixed order.
func ctAggregates(st dd.Stats) [10]uint64 {
	return [10]uint64{
		st.CacheLookups, st.CacheHits, st.CTStores, st.CTEvictions,
		st.ApplyCTLookups, st.ApplyCTHits, st.ApplyCTEvictions,
		st.ApplyMCTLookups, st.ApplyMCTHits, st.ApplyMCTEvictions,
	}
}

// TestComputeTableCounterPin pins the aggregate compute-table counters
// of every workload: lookups, hits, stores, evictions and the apply
// and matrix-apply breakdowns. The numbers were recorded before the
// tables counted for themselves, so moving the counting into the
// tables cannot move a counter. The per-table counters must sum to
// the aggregates, keep hits ≤ lookups and evictions ≤ stores, and
// every table must see lookups in some workload. HitCounts, the sum a
// traced step reads, must answer the snapshot's CacheHits and the sum
// of its ApplyCTHits and ApplyMCTHits.
func TestComputeTableCounterPin(t *testing.T) {
	want := map[string][10]uint64{
		// CacheLookups, CacheHits, CTStores, CTEvictions,
		// ApplyCT{Lookups,Hits,Evictions}, ApplyMCT{Lookups,Hits,Evictions}
		"grover5_functionality":       {35354, 13463, 21891, 6296, 0, 0, 0, 20932, 8932, 3625},
		"grover5_functionality_ct256": {35598, 13420, 22178, 13143, 0, 0, 0, 21019, 8922, 6510},
		"ghz16_sim":                   {241, 0, 241, 75, 241, 0, 75, 0, 0, 0},
		"qft8_sim":                    {541, 190, 351, 126, 453, 149, 105, 0, 0, 0},
		"kron":                        {9, 4, 5, 0, 0, 0, 0, 8, 4, 0},
		"conj_transpose_qft5":         {1647, 112, 1535, 1071, 0, 0, 0, 1306, 112, 844},
		"fidelity":                    {84, 13, 71, 14, 65, 4, 5, 0, 0, 0},
		"mult_qft6":                   {65327, 18145, 47182, 28464, 0, 0, 0, 5065, 277, 3291},
	}
	var seen [dd.NumTables]uint64
	for _, w := range ctWorkloads() {
		p := w.run(t)
		st := p.Stats()
		if cache, apply := p.HitCounts(); cache != st.CacheHits || apply != st.ApplyCTHits+st.ApplyMCTHits {
			t.Errorf("%s: HitCounts %d, %d; Stats %d, %d+%d", w.name, cache, apply, st.CacheHits, st.ApplyCTHits, st.ApplyMCTHits)
		}
		// The detector build collects at every watermark check, and a
		// collection empties the tables.
		if got := ctAggregates(st); got != want[w.name] && !dd.PoisonSwept {
			t.Errorf("%s: counters %v, want %v", w.name, got, want[w.name])
		}
		var sum dd.Stats
		for id, ts := range st.Tables {
			seen[id] += ts.Lookups
			if ts.Hits > ts.Lookups || ts.Evictions > ts.Stores {
				t.Errorf("%s: table %s counts %+v", w.name, dd.Table(id), ts)
			}
			sum.CacheLookups += ts.Lookups
			sum.CacheHits += ts.Hits
			sum.CTStores += ts.Stores
			sum.CTEvictions += ts.Evictions
			if id := dd.Table(id); id == dd.TableApplyV || id == dd.TableSplitV {
				sum.ApplyCTLookups += ts.Lookups
				sum.ApplyCTHits += ts.Hits
				sum.ApplyCTEvictions += ts.Evictions
			}
			if id := dd.Table(id); id == dd.TableApplyM || id == dd.TableSplitM || id == dd.TableMergeM {
				sum.ApplyMCTLookups += ts.Lookups
				sum.ApplyMCTHits += ts.Hits
				sum.ApplyMCTEvictions += ts.Evictions
			}
		}
		if got, tables := ctAggregates(st), ctAggregates(sum); got != tables {
			t.Errorf("%s: aggregates %v, per-table sums %v", w.name, got, tables)
		}
	}
	for id, n := range seen {
		if n == 0 {
			t.Errorf("no workload looks up table %s", dd.Table(id))
		}
	}
}

// TestComputeTablesOff checks SetComputeTableSize(0): every lookup
// misses and nothing is stored, in every table.
func TestComputeTablesOff(t *testing.T) {
	c := lowerMCZ(algorithms.Grover(5, 0b10110))
	p := dd.New(c.NQubits)
	p.SetComputeTableSize(0)
	if _, err := verify.Functionality(p, c); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.CacheLookups == 0 || st.CacheHits != 0 || st.CTStores != 0 || st.CTEvictions != 0 {
		t.Fatalf("tables off: %d lookups, %d hits, %d stores, %d evictions; want lookups > 0 and no hits or stores",
			st.CacheLookups, st.CacheHits, st.CTStores, st.CTEvictions)
	}
	for id, ts := range st.Tables {
		if ts.Hits != 0 || ts.Stores != 0 || ts.Evictions != 0 {
			t.Errorf("tables off: table %s counts %+v", dd.Table(id), ts)
		}
	}
}

// lowerMCZ rewrites every Z with three or more controls as a V-chain
// of Toffolis over fresh ancillas, as verify's tests lower Grover's
// oracle and diffusion for the matrix kernel.
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
