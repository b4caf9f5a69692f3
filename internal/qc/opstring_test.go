package qc

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// refOpString is Op.String as it was written with fmt, kept as the
// reference the strconv version must match byte for byte.
func refOpString(o *Op) string {
	switch o.Kind {
	case KindBarrier:
		return "barrier;"
	case KindMeasure:
		return fmt.Sprintf("measure q[%d] -> c[%d];", o.Targets[0], o.Cbit)
	case KindReset:
		return fmt.Sprintf("reset q[%d];", o.Targets[0])
	}
	var b strings.Builder
	if o.Cond != nil {
		fmt.Fprintf(&b, "if (c==%d) ", o.Cond.Value)
	}
	name := o.Gate.String()
	for _, c := range o.Controls {
		if c.Neg {
			name = "n" + name
		} else {
			name = "c" + name
		}
	}
	b.WriteString(name)
	if len(o.Params) > 0 {
		b.WriteByte('(')
		for i, p := range o.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", p)
		}
		b.WriteByte(')')
	}
	b.WriteByte(' ')
	first := true
	for _, c := range o.Controls {
		if !first {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "q[%d]", c.Qubit)
		first = false
	}
	for _, t := range o.Targets {
		if !first {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "q[%d]", t)
		first = false
	}
	b.WriteByte(';')
	return b.String()
}

// TestOpStringMatchesFmt renders every gate under every control
// pattern of up to three lines, with parameters, conditions, and the
// special operations, and requires the reference's bytes.
func TestOpStringMatchesFmt(t *testing.T) {
	params := [][]float64{
		nil,
		{math.Pi / 4},
		{-0.5, 1e-7, 123456789},
		{0, math.Copysign(0, -1), 1e21, 2.5e-300},
		{math.Inf(1), math.Inf(-1), math.NaN()},
		{0.1 + 0.2, -math.Pi, 1.0 / 3},
	}
	controls := [][]Control{
		nil,
		{{Qubit: 0}},
		{{Qubit: 3, Neg: true}},
		{{Qubit: 1}, {Qubit: 12, Neg: true}},
		{{Qubit: 2, Neg: true}, {Qubit: 0}, {Qubit: 104}},
	}
	conds := []*Condition{nil, {Bits: []int{0}, Value: 0}, {Bits: []int{0, 1, 2}, Value: 5}, {Value: math.MaxUint64}}
	var ops []Op
	for g := GateNone; g <= Swap+1; g++ {
		targets := []int{7}
		if g == Swap {
			targets = []int{4, 9}
		}
		for _, ps := range params {
			for _, ctl := range controls {
				for _, cond := range conds {
					ops = append(ops, Op{Kind: KindGate, Gate: g, Params: ps, Targets: targets, Controls: ctl, Cond: cond})
				}
			}
		}
	}
	ops = append(ops,
		Op{Kind: KindGate, Gate: X},
		Op{Kind: KindGate, Gate: X, Controls: []Control{{Qubit: 1}}},
		Op{Kind: KindBarrier},
		Op{Kind: KindBarrier, Targets: []int{0, 1}, Label: "b"},
		Op{Kind: KindMeasure, Targets: []int{0}, Cbit: 0},
		Op{Kind: KindMeasure, Targets: []int{17}, Cbit: 255},
		Op{Kind: KindReset, Targets: []int{0}},
		Op{Kind: KindReset, Targets: []int{63}},
	)
	for i := range ops {
		if got, want := ops[i].String(), refOpString(&ops[i]); got != want {
			t.Fatalf("op %d: String() = %q, reference %q", i, got, want)
		}
	}
}
