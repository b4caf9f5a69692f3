package verify

import (
	"context"
	"fmt"
	"math/cmplx"

	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
)

// Counterexample is a concrete witness of non-equivalence: a matrix
// entry on which the two functionalities differ, i.e. an input basis
// state |col⟩ whose image has differing amplitude on |row⟩.
type Counterexample struct {
	Row, Col int64
	A, B     complex128 // the differing entries
}

// String renders the witness for error messages.
func (c *Counterexample) String() string {
	return fmt.Sprintf("input |%b⟩, output |%b⟩: %v vs %v", c.Col, c.Row, c.A, c.B)
}

// FindCounterexample locates an entry where the diagrams of two
// operations differ by more than tol (up-to-global-phase differences
// are first compensated using the entry of largest magnitude in a).
// Returns nil when no such entry exists.
func FindCounterexample(p *dd.Pkg, a, b dd.MEdge, tol float64) *Counterexample {
	// Compensate a global phase: align b's weight to a's using the
	// first differing root path is fragile; instead use the canonical
	// structure — identical nodes mean the only possible difference is
	// the root weight.
	if a.N == b.N {
		if cmplx.Abs(a.W-b.W) <= tol {
			return nil
		}
		// Find any non-zero entry to witness the scalar difference.
		row, col, ok := firstNonZero(a)
		if !ok {
			return nil
		}
		return &Counterexample{Row: row, Col: col,
			A: dd.MatrixEntry(a, row, col), B: dd.MatrixEntry(b, row, col)}
	}
	// Different nodes: walk the difference diagram for a non-zero path.
	diff := p.AddM(a, dd.MEdge{W: -b.W, N: b.N})
	row, col, ok := firstNonZero(diff)
	if !ok {
		return nil
	}
	return &Counterexample{Row: row, Col: col,
		A: dd.MatrixEntry(a, row, col), B: dd.MatrixEntry(b, row, col)}
}

// firstNonZero finds the lexicographically first (row, col) with a
// non-zero weighted path.
func firstNonZero(e dd.MEdge) (row, col int64, ok bool) {
	if e.IsZero() {
		return 0, 0, false
	}
	if e.IsTerminal() {
		return 0, 0, true
	}
	n := e.N
	for i := int64(0); i < 2; i++ {
		for j := int64(0); j < 2; j++ {
			c := n.E[2*i+j]
			if c.W == 0 {
				continue
			}
			r, cc, found := firstNonZero(c)
			if found {
				lvl := uint(n.V)
				return r | i<<lvl, cc | j<<lvl, true
			}
		}
	}
	return 0, 0, false
}

// DiagnoseNonEquivalence builds both functionalities, reports the
// Hilbert-Schmidt overlap, and extracts a counterexample when the
// circuits differ — the debugging companion to Check.
func DiagnoseNonEquivalence(c1, c2 *qc.Circuit) (equivalent bool, overlap float64, ce *Counterexample, err error) {
	if err := checkPair(c1, c2); err != nil {
		return false, 0, nil, err
	}
	p := dd.New(c1.NQubits)
	u1, u2, _, err := buildPair(context.Background(), p, c1, c2, false)
	if err != nil {
		return false, 0, nil, err
	}
	defer p.DecRefM(u1)
	overlap = p.HSOverlap(u1, u2)
	if u1.N == u2.N && overlap > 1-1e-9 {
		return true, overlap, nil, nil
	}
	ce = FindCounterexample(p, u1, u2, p.Tolerance())
	return false, overlap, ce, nil
}
