package verify

import (
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
)

// TestFunctionalityAllocs bounds the allocations of building Grover(6)'s
// functionality on a fresh package. Canonical weights live in the flat
// complex table and node walks reuse pooled hash-addressed sets, so
// neither allocates per value or per gate; a table that allocated per
// distinct real would cost about 2400 allocations here.
func TestFunctionalityAllocs(t *testing.T) {
	const limit = 1100
	circ := algorithms.Grover(6, 45)
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := BuildFunctionality(dd.New(circ.NQubits), circ); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Grover(6) functionality build: %.0f allocs", allocs)
	if allocs > limit {
		t.Fatalf("Grover(6) functionality build made %.0f allocations, limit %d", allocs, limit)
	}
}
