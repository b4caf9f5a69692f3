package dd

import "quantumdd/internal/qc"

// The one entry from a circuit op to the gate kernels. Every caller
// that applies a qc.Op to a diagram goes through these: the op's
// controls pass as they are (Control is qc.Control), SWAP goes to its
// CNOT triple, and every application runs under the node budget. A
// caller applying the inverse of an op passes op.Inverse().
//
// The op must be a gate (Kind == qc.KindGate); testing its classical
// condition, if any, is the caller's part. A measurement or reset
// reaches the same vector kernel as a projector, under the same
// budget, by way of Collapse or ResetTo (measure.go) once the caller
// has picked its outcome.

// ApplyOp applies the gate op to the state v under the node budget:
// ApplyGateChecked for a single-target gate, ApplySwapChecked for SWAP.
func (p *Pkg) ApplyOp(v VEdge, op *qc.Op) (VEdge, error) {
	if op.Gate == qc.Swap {
		return p.ApplySwapChecked(v, op.Targets[0], op.Targets[1], op.Controls...)
	}
	return p.ApplyGateChecked(v, GateMatrix(qc.Matrix2(op.Gate, op.Params)), op.Targets[0], op.Controls...)
}

// ApplyOpML computes the left product U·M of the gate op and m under
// the node budget: ApplyGateMLChecked for a single-target gate, three
// kernel CNOTs for SWAP.
func (p *Pkg) ApplyOpML(m MEdge, op *qc.Op) (MEdge, error) { return p.applyOpM(m, op, left) }

// ApplyOpMR computes the right product M·U of m and the gate op under
// the node budget, as ApplyOpML does the left one.
func (p *Pkg) ApplyOpMR(m MEdge, op *qc.Op) (MEdge, error) { return p.applyOpM(m, op, right) }

func (p *Pkg) applyOpM(m MEdge, op *qc.Op, s side) (MEdge, error) {
	if op.Gate == qc.Swap {
		return p.applySwapMChecked(m, op.Targets[0], op.Targets[1], op.Controls, s)
	}
	return p.applyGateMChecked(m, p.internGate(GateMatrix(qc.Matrix2(op.Gate, op.Params)), op.Targets[0], op.Controls), s)
}
