package qc

import (
	"fmt"
	"strings"
)

// QASM serializes the circuit as an OpenQASM 2.0 program that the
// package's own parser (internal/qasm) accepts, enabling round trips
// between the tool's algorithm box and the IR. Negative controls are
// written as X-conjugated positive ones. Gates with more than two
// controls, and doubly controlled gates other than X and Z, have no
// spelling here: they are written as a "// unsupported op" comment
// and dropped, so the round trip loses them.
func (c *Circuit) QASM() string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\n")
	b.WriteString("include \"qelib1.inc\";\n")
	fmt.Fprintf(&b, "qreg q[%d];\n", c.NQubits)
	if c.NClbits > 0 {
		fmt.Fprintf(&b, "creg c[%d];\n", c.NClbits)
	}
	for i := range c.Ops {
		op := c.Ops[i]
		// Negative controls have no qelib1 spelling; conjugate the
		// affected control qubits with X so the positive-control form
		// is equivalent.
		var negs []int
		for _, ctl := range op.Controls {
			if ctl.Neg {
				negs = append(negs, ctl.Qubit)
			}
		}
		if len(negs) > 0 && op.Kind == KindGate {
			pos := make([]Control, len(op.Controls))
			for j, ctl := range op.Controls {
				pos[j] = Control{Qubit: ctl.Qubit}
			}
			op.Controls = pos
			for _, q := range negs {
				fmt.Fprintf(&b, "x q[%d];\n", q)
			}
			if line, ok := qasmLine(&op); ok {
				b.WriteString(line)
				b.WriteByte('\n')
			} else {
				fmt.Fprintf(&b, "// unsupported op: %s\n", c.Ops[i].String())
			}
			for _, q := range negs {
				fmt.Fprintf(&b, "x q[%d];\n", q)
			}
			continue
		}
		line, ok := qasmLine(&op)
		if !ok {
			fmt.Fprintf(&b, "// unsupported op: %s\n", op.String())
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func qasmLine(o *Op) (string, bool) {
	switch o.Kind {
	case KindBarrier:
		return "barrier q;", true
	case KindMeasure:
		return fmt.Sprintf("measure q[%d] -> c[%d];", o.Targets[0], o.Cbit), true
	case KindReset:
		return fmt.Sprintf("reset q[%d];", o.Targets[0]), true
	}
	prefix := ""
	if o.Cond != nil {
		prefix = fmt.Sprintf("if (c==%d) ", o.Cond.Value)
	}
	name, ok := qasmGateName(o)
	if !ok {
		return "", false
	}
	args := make([]string, 0, len(o.Controls)+len(o.Targets))
	for _, c := range o.Controls {
		args = append(args, fmt.Sprintf("q[%d]", c.Qubit))
	}
	for _, t := range o.Targets {
		args = append(args, fmt.Sprintf("q[%d]", t))
	}
	params := ""
	if len(o.Params) > 0 {
		ps := make([]string, len(o.Params))
		for i, p := range o.Params {
			ps[i] = fmt.Sprintf("%.17g", p)
		}
		params = "(" + strings.Join(ps, ",") + ")"
	}
	return fmt.Sprintf("%s%s%s %s;", prefix, name, params, strings.Join(args, ",")), true
}

// qasmGateName maps an op onto a qelib1 gate name, handling the
// common controlled forms. Negative controls and deep control stacks
// have no qelib1 spelling and report false.
func qasmGateName(o *Op) (string, bool) {
	for _, c := range o.Controls {
		if c.Neg {
			return "", false
		}
	}
	base := o.Gate.String()
	switch len(o.Controls) {
	case 0:
		if o.Gate == U {
			return "u3", true
		}
		return base, true
	case 1:
		switch o.Gate {
		case X, Y, Z, H, Swap:
			return "c" + base, true
		case P:
			return "cp", true
		case RX, RY, RZ:
			return "c" + base, true
		}
	case 2:
		switch o.Gate {
		case X:
			return "ccx", true
		case Z:
			return "ccz", true
		}
	}
	return "", false
}
