package dd

// SWAP lowering. A (controlled) SWAP of qubits a and b is the product
// of three CNOTs — X on b controlled by a, X on a controlled by b, and
// X on b controlled by a again — each also under the SWAP's own
// controls. The sequence is a palindrome, so it serves both sides of a
// matrix product: S·M and M·S both apply the triple in the order
// given. Every SWAP the engine applies takes its CNOTs from swapCNOTs,
// whether through the gate-apply kernels or lowered to its gate
// diagram by MakeSwapDD.

// cnot is one gate of a SWAP's CNOT triple: X on target under
// controls.
type cnot struct {
	target   int
	controls []Control
}

// swapCNOTs yields the CNOT triple of a SWAP of a and b under the
// given controls.
func swapCNOTs(a, b int, controls []Control) [3]cnot {
	if a == b {
		panic("dd: SWAP qubits must differ")
	}
	ca := append(append(make([]Control, 0, len(controls)+1), controls...), Control{Qubit: a})
	cb := append(append(make([]Control, 0, len(controls)+1), controls...), Control{Qubit: b})
	return [3]cnot{{b, ca}, {a, cb}, {b, ca}}
}

// MakeSwapDD builds the diagram of a (controlled) SWAP of qubits a and
// b as the product of its three CNOT diagrams — the standard
// decomposition the paper's compiled circuits use. Circuits apply SWAP
// through the kernels (ApplySwap, ApplySwapML, ApplySwapMR); the
// diagram is for callers that multiply gate diagrams themselves.
func (p *Pkg) MakeSwapDD(a, b int, controls ...Control) MEdge {
	cx := swapCNOTs(a, b, controls)
	g1 := p.MakeGateDD(pauliX, cx[0].target, cx[0].controls...)
	g2 := p.MakeGateDD(pauliX, cx[1].target, cx[1].controls...)
	return p.MultMM(g1, p.MultMM(g2, g1))
}

// ApplySwap applies a (controlled) SWAP of qubits a and b to the state
// v as three ApplyGate CNOTs — equivalent to
// MultMV(MakeSwapDD(a, b, controls...), v).
func (p *Pkg) ApplySwap(v VEdge, a, b int, controls ...Control) VEdge {
	for _, cx := range swapCNOTs(a, b, controls) {
		v = p.ApplyGate(v, pauliX, cx.target, cx.controls...)
	}
	return v
}

// ApplySwapChecked is ApplySwap under the node budget (see budget.go).
// A checked call may garbage-collect on entry, which would sweep the
// previous CNOT's unreferenced result; each intermediate is the
// operand of the next checked call, which ref-protects it first. On an
// abort the operand v is left as it was.
func (p *Pkg) ApplySwapChecked(v VEdge, a, b int, controls ...Control) (VEdge, error) {
	for _, cx := range swapCNOTs(a, b, controls) {
		var err error
		if v, err = p.ApplyGateChecked(v, pauliX, cx.target, cx.controls...); err != nil {
			return VZero(), err
		}
	}
	return v, nil
}

// ApplySwapML computes the left product S·M of a (controlled) SWAP and
// the matrix diagram m as three ApplyGateML CNOTs.
func (p *Pkg) ApplySwapML(m MEdge, a, b int, controls ...Control) MEdge {
	return p.applySwapM(m, a, b, controls, left)
}

// ApplySwapMR computes the right product M·S as three ApplyGateMR
// CNOTs.
func (p *Pkg) ApplySwapMR(m MEdge, a, b int, controls ...Control) MEdge {
	return p.applySwapM(m, a, b, controls, right)
}

// ApplySwapMLChecked is ApplySwapML under the node budget, with the
// intermediates protected as in ApplySwapChecked.
func (p *Pkg) ApplySwapMLChecked(m MEdge, a, b int, controls ...Control) (MEdge, error) {
	return p.applySwapMChecked(m, a, b, controls, left)
}

// ApplySwapMRChecked is ApplySwapMR under the node budget, with the
// intermediates protected as in ApplySwapChecked.
func (p *Pkg) ApplySwapMRChecked(m MEdge, a, b int, controls ...Control) (MEdge, error) {
	return p.applySwapMChecked(m, a, b, controls, right)
}

func (p *Pkg) applySwapM(m MEdge, a, b int, controls []Control, s side) MEdge {
	for _, cx := range swapCNOTs(a, b, controls) {
		m = p.applyGateMTraced(m, p.internGate(pauliX, cx.target, cx.controls), s)
	}
	return m
}

func (p *Pkg) applySwapMChecked(m MEdge, a, b int, controls []Control, s side) (MEdge, error) {
	for _, cx := range swapCNOTs(a, b, controls) {
		var err error
		if m, err = p.applyGateMChecked(m, p.internGate(pauliX, cx.target, cx.controls), s); err != nil {
			return MZero(), err
		}
	}
	return m, nil
}
