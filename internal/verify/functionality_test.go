package verify

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
)

// TestFunctionalityDigest pins the serialized functionality of six
// circuits, built with and without per-gate records on a fresh
// package: the SHA-256 of AppendMatrixBinary covers the structure and
// every weight bit, so a change to how a build manages its package
// (collection, compute tables, recycling) cannot move the operator.
// Three digests were re-recorded when intermediate weights stopped
// going through the complex table, and two when two addends into one
// node began to add by their weights (the sum's bits differ from the
// descent's); TestDenseOracleFunctionality checks those operators
// against the dense unitary.
func TestFunctionalityDigest(t *testing.T) {
	want := map[string]string{
		"grover_4_11_lowered": "c74604c3fe9150d1f9325e9ced4ef79ee55598ba3e15cf9a063ae8a6966a63e1", // 5 qubits, 88 gates, 45 nodes
		"grover_5_22_lowered": "080d38eb9a3347fe0e42a45ef047354835ad50488c140614bf4de92389327368", // 7 qubits, 157 gates, 179 nodes
		"adder_8":             "18dedbf0f08cbe93302103ba1cf9ac199bbec48803bf59ad1b22e4daadb91b4b", // 18 qubits, 49 gates, 43 nodes
		"qft_5":               "484544be417814b3548be95dcd340b6f3c2e0b478ac4b7d6cd23b56b0c21420a", // 5 qubits, 17 gates, 341 nodes
		"random_7_30":         "207b4de31371a182d252825457155d53f686c895de43121ac2379bf8f543298d", // 7 qubits, 210 gates, 5461 nodes
		"qft_5_inv":           "58ae49f9fdea52b9b799c81e5c3b851faac0c3a2a5ed29fe846b377290bf328d", // 5 qubits, 17 gates, 341 nodes
	}
	inv, err := algorithms.QFT(5).Inverse()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*qc.Circuit{
		lowerMCZ(algorithms.Grover(4, 0b1011)),
		lowerMCZ(algorithms.Grover(5, 0b10110)),
		algorithms.Adder(8),
		algorithms.QFT(5),
		algorithms.RandomCircuit(7, 30, 3),
		inv,
	} {
		p := dd.New(c.NQubits)
		u, err := Functionality(p, c)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(p.AppendMatrixBinary(nil, u))
		got := hex.EncodeToString(sum[:])

		q := dd.New(c.NQubits)
		v, _, err := BuildFunctionality(q, c)
		if err != nil {
			t.Fatal(err)
		}
		rsum := sha256.Sum256(q.AppendMatrixBinary(nil, v))
		if rgot := hex.EncodeToString(rsum[:]); rgot != got {
			t.Errorf("%s: BuildFunctionality digest %s, Functionality %s", c.Name, rgot, got)
		}
		if w := want[c.Name]; got != w {
			t.Errorf("%s: digest %s, want %s", c.Name, got, w)
		}
	}
}

// TestConstructionUnderBudget checks the construction strategy with a
// node budget small enough that building G′ collects garbage: U of G
// must survive those collections. Held unreferenced, it was swept, so
// lowered Grover(5) against itself answered not equivalent under
// budgets of 3000 to 10000 nodes and panicked at 2000.
func TestConstructionUnderBudget(t *testing.T) {
	g5 := lowerMCZ(algorithms.Grover(5, 0b10110))
	for _, budget := range []int{10000, 8000, 6000, 4000, 3000, 2000} {
		p := dd.New(g5.NQubits)
		p.SetMaxNodes(budget)
		res, err := CheckOn(p, g5, g5, Construction)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !res.Equivalent || res.UpToGlobalPhase {
			t.Fatalf("budget %d: equivalent=%v upToPhase=%v, want exactly equivalent", budget, res.Equivalent, res.UpToGlobalPhase)
		}
		if res.FinalNodes != 179 {
			t.Fatalf("budget %d: %d final nodes, want 179", budget, res.FinalNodes)
		}
	}
}

// TestFunctionalityAllocBytes bounds the heap bytes of building
// lowered Grover(5)'s functionality (7 qubits, 157 gates, 179 nodes)
// on a fresh package under the web server's default node budget. The
// build collects as the operator grows, so swept nodes are recycled
// and the unique and compute tables stay sized to the operator; kept
// live to the end, its 10k intermediates cost about 4.4 MB. Adding
// two edges into one node by their weights took the build from about
// 1.36 MB to 1.10 MB.
func TestFunctionalityAllocBytes(t *testing.T) {
	circ := lowerMCZ(algorithms.Grover(5, 0b10110))
	const maxBytes = 5 << 18 // 1.25 MB
	build := func() {
		p := dd.New(circ.NQubits)
		p.SetMaxNodes(250000)
		if _, err := Functionality(p, circ); err != nil {
			t.Fatal(err)
		}
	}
	build() // warm up lazily built gate and package state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d heap bytes, %d allocations", bytes, after.Mallocs-before.Mallocs)
	if bytes > maxBytes && !ddPoison {
		t.Fatalf("%d heap bytes, bound %d", bytes, maxBytes)
	}
}

// TestFunctionalityAddCounts guards the add work of building lowered
// Grover(5)'s functionality as TestFunctionalityAllocBytes builds it.
// Two edges into one node add by their weights, without a
// compute-table probe or a descent: that took the build from 41,911
// compute-table lookups and 10,920 matrix unique-table hits to 35,354
// and 8,211, and created exactly the same 13,689 matrix nodes.
func TestFunctionalityAddCounts(t *testing.T) {
	circ := lowerMCZ(algorithms.Grover(5, 0b10110))
	p := dd.New(circ.NQubits)
	p.SetMaxNodes(250000)
	if _, err := Functionality(p, circ); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	t.Logf("%d matrix nodes created, %d compute-table lookups, %d matrix unique-table hits",
		st.NodesCreatedM, st.CacheLookups, st.UniqueHitsM)
	if ddPoison {
		return // the detector build collects after every gate
	}
	if st.NodesCreatedM != 13689 {
		t.Errorf("%d matrix nodes created, want 13689", st.NodesCreatedM)
	}
	if st.CacheLookups > 36000 {
		t.Errorf("%d compute-table lookups, bound 36000", st.CacheLookups)
	}
	if st.UniqueHitsM > 8500 {
		t.Errorf("%d matrix unique-table hits, bound 8500", st.UniqueHitsM)
	}
}

// TestFunctionalityCollects checks the collection rule of an
// unbudgeted build: the random circuit's 5461-node operator leaves
// about 274k live nodes when nothing is collected, and with a
// collection whenever the live nodes double it ends below twice the
// operator.
func TestFunctionalityCollects(t *testing.T) {
	circ := algorithms.RandomCircuit(7, 30, 3)
	p := dd.New(circ.NQubits)
	u, err := Functionality(p, circ)
	if err != nil {
		t.Fatal(err)
	}
	nodes := dd.SizeM(u)
	if nodes != 5461 {
		t.Fatalf("operator has %d nodes, want 5461", nodes)
	}
	st := p.Stats()
	t.Logf("%d live nodes, %d collections, %d nodes freed", p.LiveNodes(), st.GCRuns, st.NodesFreed)
	if live := p.LiveNodes(); live > 2*nodes {
		t.Fatalf("%d live nodes after the build, want at most %d", live, 2*nodes)
	}
}

// TestFunctionalityComplexValues guards the complex-table cost of a
// build: only the child weights of new nodes, the addition keys and
// the returned root go through the table. Building lowered Grover(5)'s
// functionality on a fresh package stored 14122 canonical reals when
// every intermediate result was canonicalized too; the guard allows
// 60 % of that.
func TestFunctionalityComplexValues(t *testing.T) {
	const canonicalizedEverywhere = 14122
	c := lowerMCZ(algorithms.Grover(5, 0b10110))
	p := dd.New(c.NQubits)
	if _, err := Functionality(p, c); err != nil {
		t.Fatal(err)
	}
	got := p.Stats().ComplexValues
	t.Logf("%d complex values, %d with every intermediate canonicalized", got, canonicalizedEverywhere)
	if got > canonicalizedEverywhere*6/10 {
		t.Fatalf("%d complex values, bound %d", got, canonicalizedEverywhere*6/10)
	}
}
