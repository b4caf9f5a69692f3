package qc

import (
	"fmt"
	"strconv"
	"strings"
)

// OpKind distinguishes unitary gates from the special operations of
// Sec. IV-B of the paper, which do not correspond to a unitary matrix
// and act as breakpoints in the tool.
type OpKind int

const (
	KindGate    OpKind = iota // unitary gate application
	KindBarrier               // breakpoint, no semantic effect
	KindMeasure               // qubit → classical bit, collapses state
	KindReset                 // discard qubit, re-initialize to |0⟩
)

// Control is a control line of a gate: positive (•, active on |1⟩) or
// negative (○, active on |0⟩).
type Control struct {
	Qubit int
	Neg   bool
}

// Condition is an optional classical guard on a gate ("if (c==v) g"),
// the classically-controlled operations of OpenQASM the tool supports.
type Condition struct {
	// Bits lists the classical bit indices forming the compared
	// register value, least-significant first.
	Bits []int
	// Value the register must equal for the gate to fire.
	Value uint64
}

// Op is one operation of a circuit.
type Op struct {
	Kind     OpKind
	Gate     Gate      // valid when Kind == KindGate
	Params   []float64 // gate angle parameters
	Targets  []int     // 1 target, or 2 for Swap
	Controls []Control // control lines (gates only)
	Cond     *Condition
	Cbit     int    // measure destination classical bit
	Label    string // optional display label (e.g. barrier names)
}

// IsUnitary reports whether the operation corresponds to a unitary
// matrix (unconditioned gate).
func (o *Op) IsUnitary() bool { return o.Kind == KindGate && o.Cond == nil }

// IsSpecial reports whether the operation is one of the paper's
// "special operations" that act as breakpoints: barriers, measurements
// and resets (and classically-controlled gates, which depend on
// measurement results).
func (o *Op) IsSpecial() bool { return o.Kind != KindGate || o.Cond != nil }

// Inverse returns the adjoint of the gate op: the inverted gate
// (InverseGate) on the same targets and controls, which it shares with
// o. The classical condition and label are not carried over.
func (o *Op) Inverse() Op {
	g, params := InverseGate(o.Gate, o.Params)
	return Op{Kind: KindGate, Gate: g, Params: params, Targets: o.Targets, Controls: o.Controls}
}

// String renders the operation in OpenQASM-like syntax. It names
// every traced step and applied-gate caption, so it appends with
// strconv instead of formatting through fmt.
func (o *Op) String() string {
	var buf [64]byte
	return string(o.appendString(buf[:0]))
}

func (o *Op) appendString(b []byte) []byte {
	switch o.Kind {
	case KindBarrier:
		return append(b, "barrier;"...)
	case KindMeasure:
		b = appendQubit(append(b, "measure "...), o.Targets[0])
		b = strconv.AppendInt(append(b, " -> c["...), int64(o.Cbit), 10)
		return append(b, "];"...)
	case KindReset:
		return append(appendQubit(append(b, "reset "...), o.Targets[0]), ';')
	}
	if o.Cond != nil {
		b = strconv.AppendUint(append(b, "if (c=="...), o.Cond.Value, 10)
		b = append(b, ") "...)
	}
	// Each control prefixes the name, so the last one comes first.
	for i := len(o.Controls) - 1; i >= 0; i-- {
		if o.Controls[i].Neg {
			b = append(b, 'n')
		} else {
			b = append(b, 'c')
		}
	}
	b = append(b, o.Gate.String()...)
	if len(o.Params) > 0 {
		b = append(b, '(')
		for i, p := range o.Params {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, p, 'g', -1, 64) // as fmt's %g
		}
		b = append(b, ')')
	}
	b = append(b, ' ')
	for i, c := range o.Controls {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendQubit(b, c.Qubit)
	}
	for i, t := range o.Targets {
		if i > 0 || len(o.Controls) > 0 {
			b = append(b, ", "...)
		}
		b = appendQubit(b, t)
	}
	return append(b, ';')
}

func appendQubit(b []byte, q int) []byte {
	return append(strconv.AppendInt(append(b, "q["...), int64(q), 10), ']')
}

// Circuit is a straight-line quantum program.
type Circuit struct {
	Name    string
	NQubits int
	NClbits int
	Ops     []Op
}

// New creates an empty circuit over nqubits qubits and nclbits
// classical bits.
func New(nqubits, nclbits int) *Circuit {
	if nqubits <= 0 {
		panic(fmt.Sprintf("qc: circuit needs at least one qubit, got %d", nqubits))
	}
	if nclbits < 0 {
		panic("qc: negative classical register size")
	}
	return &Circuit{NQubits: nqubits, NClbits: nclbits}
}

// NumGates counts the unitary gate operations (the "m" of
// G = g_0 … g_{m-1}); special operations are not counted.
func (c *Circuit) NumGates() int {
	n := 0
	for i := range c.Ops {
		if c.Ops[i].Kind == KindGate {
			n++
		}
	}
	return n
}

// HasNonUnitary reports whether the circuit contains measurements,
// resets or classically-controlled gates — circuits with those cannot
// be verified (Sec. IV-C) or inverted.
func (c *Circuit) HasNonUnitary() bool {
	for i := range c.Ops {
		o := &c.Ops[i]
		if o.Kind == KindMeasure || o.Kind == KindReset || o.Cond != nil {
			return true
		}
	}
	return false
}

func (c *Circuit) checkQubit(q int) {
	if q < 0 || q >= c.NQubits {
		panic(fmt.Sprintf("qc: qubit %d out of range [0,%d)", q, c.NQubits))
	}
}

func (c *Circuit) checkClbit(b int) {
	if b < 0 || b >= c.NClbits {
		panic(fmt.Sprintf("qc: classical bit %d out of range [0,%d)", b, c.NClbits))
	}
}

// Append adds a fully specified operation after validating its
// operands.
func (c *Circuit) Append(op Op) *Circuit {
	seen := map[int]bool{}
	for _, t := range op.Targets {
		c.checkQubit(t)
		if seen[t] {
			panic(fmt.Sprintf("qc: duplicate target qubit %d", t))
		}
		seen[t] = true
	}
	for _, ctl := range op.Controls {
		c.checkQubit(ctl.Qubit)
		if seen[ctl.Qubit] {
			panic(fmt.Sprintf("qc: control qubit %d overlaps another operand", ctl.Qubit))
		}
		seen[ctl.Qubit] = true
	}
	if op.Kind == KindGate {
		if want := op.Gate.ParamCount(); len(op.Params) != want {
			panic(fmt.Sprintf("qc: gate %v takes %d parameters, got %d", op.Gate, want, len(op.Params)))
		}
		wantTargets := 1
		if op.Gate == Swap {
			wantTargets = 2
		}
		if len(op.Targets) != wantTargets {
			panic(fmt.Sprintf("qc: gate %v takes %d targets, got %d", op.Gate, wantTargets, len(op.Targets)))
		}
	}
	if op.Kind == KindMeasure {
		c.checkClbit(op.Cbit)
	}
	if op.Cond != nil {
		for _, b := range op.Cond.Bits {
			c.checkClbit(b)
		}
	}
	c.Ops = append(c.Ops, op)
	return c
}

// Gate appends gate g(params) on target with optional controls.
func (c *Circuit) Gate(g Gate, params []float64, target int, controls ...Control) *Circuit {
	return c.Append(Op{Kind: KindGate, Gate: g, Params: params, Targets: []int{target}, Controls: controls})
}

// Convenience builders for the common gates.

// X appends a Pauli-X (optionally controlled) on qubit q.
func (c *Circuit) X(q int, ctl ...Control) *Circuit { return c.Gate(X, nil, q, ctl...) }

// Y appends a Pauli-Y (optionally controlled) on qubit q.
func (c *Circuit) Y(q int, ctl ...Control) *Circuit { return c.Gate(Y, nil, q, ctl...) }

// Z appends a Pauli-Z (optionally controlled) on qubit q.
func (c *Circuit) Z(q int, ctl ...Control) *Circuit { return c.Gate(Z, nil, q, ctl...) }

// H appends a Hadamard (optionally controlled) on qubit q.
func (c *Circuit) H(q int, ctl ...Control) *Circuit { return c.Gate(H, nil, q, ctl...) }

// S appends an S phase gate (optionally controlled) on qubit q.
func (c *Circuit) S(q int, ctl ...Control) *Circuit { return c.Gate(S, nil, q, ctl...) }

// T appends a T phase gate (optionally controlled) on qubit q.
func (c *Circuit) T(q int, ctl ...Control) *Circuit { return c.Gate(T, nil, q, ctl...) }

// CX appends a controlled-NOT with control ctrl and target tgt.
func (c *Circuit) CX(ctrl, tgt int) *Circuit { return c.X(tgt, Control{Qubit: ctrl}) }

// CCX appends a Toffoli gate.
func (c *Circuit) CCX(c1, c2, tgt int) *Circuit {
	return c.X(tgt, Control{Qubit: c1}, Control{Qubit: c2})
}

// Phase appends the phase gate P(theta) on q, optionally controlled —
// the controlled rotations "with an angle that is a certain fraction
// of π" of Ex. 10 (S = P(π/2), T = P(π/4)).
func (c *Circuit) Phase(theta float64, q int, ctl ...Control) *Circuit {
	return c.Gate(P, []float64{theta}, q, ctl...)
}

// Swap appends a SWAP of qubits a and b.
func (c *Circuit) SwapGate(a, b int, ctl ...Control) *Circuit {
	return c.Append(Op{Kind: KindGate, Gate: Swap, Targets: []int{a, b}, Controls: ctl})
}

// Barrier appends a breakpoint.
func (c *Circuit) Barrier() *Circuit { return c.Append(Op{Kind: KindBarrier}) }

// Measure appends a measurement of qubit q into classical bit b.
func (c *Circuit) Measure(q, b int) *Circuit {
	return c.Append(Op{Kind: KindMeasure, Targets: []int{q}, Cbit: b})
}

// Reset appends a reset of qubit q.
func (c *Circuit) Reset(q int) *Circuit {
	return c.Append(Op{Kind: KindReset, Targets: []int{q}})
}

// GateIf appends a classically-controlled gate guarded by the given
// classical bits equalling value.
func (c *Circuit) GateIf(g Gate, params []float64, target int, bits []int, value uint64, controls ...Control) *Circuit {
	return c.Append(Op{Kind: KindGate, Gate: g, Params: params, Targets: []int{target},
		Controls: controls, Cond: &Condition{Bits: bits, Value: value}})
}

// Inverse returns the adjoint circuit G⁻¹ (gates reversed and
// individually inverted), required by the advanced equivalence-
// checking scheme. It fails if the circuit contains non-unitary
// operations; barriers are preserved in reversed positions.
func (c *Circuit) Inverse() (*Circuit, error) {
	if c.HasNonUnitary() {
		return nil, fmt.Errorf("qc: circuit %q contains non-unitary operations and cannot be inverted", c.Name)
	}
	inv := New(c.NQubits, c.NClbits)
	inv.Name = c.Name + "_inv"
	for i := len(c.Ops) - 1; i >= 0; i-- {
		op := &c.Ops[i]
		if op.Kind == KindBarrier {
			inv.Ops = append(inv.Ops, *op)
			continue
		}
		inv.Append(op.Inverse())
	}
	return inv, nil
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := New(c.NQubits, c.NClbits)
	out.Name = c.Name
	out.Ops = make([]Op, len(c.Ops))
	copy(out.Ops, c.Ops)
	for i := range out.Ops {
		op := &out.Ops[i]
		op.Params = append([]float64(nil), op.Params...)
		op.Targets = append([]int(nil), op.Targets...)
		op.Controls = append([]Control(nil), op.Controls...)
		if op.Cond != nil {
			cond := *op.Cond
			cond.Bits = append([]int(nil), cond.Bits...)
			op.Cond = &cond
		}
	}
	return out
}

// String renders the circuit as OpenQASM-like pseudo code.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s: %d qubits, %d clbits, %d ops\n", c.Name, c.NQubits, c.NClbits, len(c.Ops))
	for i := range c.Ops {
		b.WriteString(c.Ops[i].String())
		b.WriteByte('\n')
	}
	return b.String()
}
