// Package realfmt parses the RevLib ".real" reversible-circuit format,
// the second input format of the paper's tool ("in either .qasm or
// .real format", Sec. IV-B).
//
// The supported subset covers the gate libraries found in the RevLib
// benchmark suite: multi-controlled Toffoli gates (t1, t2, t3, …),
// Fredkin/controlled-swap gates (f2, f3, …), and controlled square-
// root-of-NOT gates (v, v+). A '-' prefix on a control variable
// denotes a negative control. Variables are mapped to qubits in
// declaration order: the first variable of ".variables" becomes
// qubit 0.
package realfmt

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"quantumdd/internal/qc"
)

// Error is a parse error with a line number.
type Error struct {
	Line int
	Msg  string
}

// Error renders the parse error with its line number.
func (e *Error) Error() string { return fmt.Sprintf("real:%d: %s", e.Line, e.Msg) }

// Parse reads a .real circuit description.
func Parse(r io.Reader) (*qc.Circuit, error) { return parse(r, 1<<16) }

// maxLine is the longest line Parse accepts, in bytes.
const maxLine = 1 << 22

// parse reads a .real description into a line buffer of initially
// bufSize bytes, which grows up to maxLine.
func parse(r io.Reader, bufSize int) (*qc.Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, bufSize), maxLine)
	var (
		line     int
		numvars  = -1
		vars     []string
		varIndex = map[string]int{}
		circ     *qc.Circuit
		begun    bool
		ended    bool
	)
	errf := func(format string, args ...interface{}) error {
		return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if ended {
			return nil, errf("content after .end")
		}
		fields := strings.Fields(text)
		key := strings.ToLower(fields[0])
		switch {
		case key == ".version":
			// informational
		case key == ".numvars":
			if len(fields) != 2 {
				return nil, errf(".numvars takes one argument")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, errf("invalid .numvars %q", fields[1])
			}
			numvars = n
		case key == ".variables":
			if numvars < 0 {
				return nil, errf(".variables before .numvars")
			}
			if len(fields)-1 != numvars {
				return nil, errf(".variables lists %d names, .numvars says %d", len(fields)-1, numvars)
			}
			for i, name := range fields[1:] {
				if _, dup := varIndex[name]; dup {
					return nil, errf("duplicate variable %q", name)
				}
				varIndex[name] = i
				vars = append(vars, name)
			}
		case key == ".inputs" || key == ".outputs" || key == ".constants" || key == ".garbage" || key == ".inputbus" || key == ".outputbus" || key == ".state" || key == ".module":
			// Metadata irrelevant for simulation/verification semantics.
		case key == ".define":
			return nil, errf(".define modules are not supported")
		case key == ".begin":
			if numvars < 0 {
				return nil, errf(".begin before .numvars")
			}
			if len(vars) == 0 {
				// Circuits may omit .variables; synthesize names x0…
				for i := 0; i < numvars; i++ {
					name := fmt.Sprintf("x%d", i)
					varIndex[name] = i
					vars = append(vars, name)
				}
			}
			circ = qc.New(numvars, 0)
			circ.Name = "real"
			begun = true
		case key == ".end":
			if !begun {
				return nil, errf(".end before .begin")
			}
			ended = true
		default:
			if !begun {
				return nil, errf("unexpected directive %q before .begin", fields[0])
			}
			if err := parseGateLine(circ, varIndex, fields, line); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if circ == nil {
		return nil, &Error{Line: line, Msg: "no .begin section found"}
	}
	if !ended {
		return nil, &Error{Line: line, Msg: "missing .end"}
	}
	return circ, nil
}

// ParseString parses a .real description held in a string. Its line
// buffer starts at the size of the source, so a short source does not
// pay for Parse's 64 kB.
func ParseString(src string) (*qc.Circuit, error) {
	return parse(strings.NewReader(src), min(len(src)+1, 1<<16))
}

func parseGateLine(circ *qc.Circuit, varIndex map[string]int, fields []string, line int) error {
	errf := func(format string, args ...interface{}) error {
		return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
	}
	spec := strings.ToLower(fields[0])
	operandNames := fields[1:]
	// Resolve operands with optional '-' negative-control markers.
	type operand struct {
		qubit int
		neg   bool
	}
	operands := make([]operand, len(operandNames))
	seen := map[int]bool{}
	for i, name := range operandNames {
		neg := false
		if strings.HasPrefix(name, "-") {
			neg = true
			name = name[1:]
		}
		idx, ok := varIndex[name]
		if !ok {
			return errf("unknown variable %q", name)
		}
		if seen[idx] {
			return errf("variable %q used twice in one gate", name)
		}
		seen[idx] = true
		operands[i] = operand{qubit: idx, neg: neg}
	}
	kind := spec
	size := -1
	// Split e.g. "t3" into kind "t" and size 3; "v+" stays as is.
	for i, r := range spec {
		if r >= '0' && r <= '9' {
			kind = spec[:i]
			n, err := strconv.Atoi(spec[i:])
			if err != nil {
				return errf("malformed gate spec %q", spec)
			}
			size = n
			break
		}
	}
	if size >= 0 && size != len(operands) {
		return errf("gate %q expects %d operands, got %d", spec, size, len(operands))
	}
	controlsOf := func(ops []operand) []qc.Control {
		ctl := make([]qc.Control, len(ops))
		for i, o := range ops {
			ctl[i] = qc.Control{Qubit: o.qubit, Neg: o.neg}
		}
		return ctl
	}
	switch kind {
	case "t":
		// Multi-controlled Toffoli: last operand is the target.
		if len(operands) < 1 {
			return errf("t gate needs at least a target")
		}
		tgt := operands[len(operands)-1]
		if tgt.neg {
			return errf("target of %q cannot be negated", spec)
		}
		circ.Gate(qc.X, nil, tgt.qubit, controlsOf(operands[:len(operands)-1])...)
	case "f":
		// Fredkin: last two operands are swapped.
		if len(operands) < 2 {
			return errf("f gate needs two targets")
		}
		a, b := operands[len(operands)-2], operands[len(operands)-1]
		if a.neg || b.neg {
			return errf("targets of %q cannot be negated", spec)
		}
		circ.SwapGate(a.qubit, b.qubit, controlsOf(operands[:len(operands)-2])...)
	case "v":
		if len(operands) < 1 {
			return errf("v gate needs a target")
		}
		tgt := operands[len(operands)-1]
		if tgt.neg {
			return errf("target of %q cannot be negated", spec)
		}
		circ.Gate(qc.V, nil, tgt.qubit, controlsOf(operands[:len(operands)-1])...)
	case "v+":
		if len(operands) < 1 {
			return errf("v+ gate needs a target")
		}
		tgt := operands[len(operands)-1]
		if tgt.neg {
			return errf("target of %q cannot be negated", spec)
		}
		circ.Gate(qc.Vdg, nil, tgt.qubit, controlsOf(operands[:len(operands)-1])...)
	case "p":
		// Peres gate p3 a b c = t3 a b c; t2 a b (decomposed form).
		if len(operands) != 3 {
			return errf("peres gate takes 3 operands")
		}
		for _, o := range operands {
			if o.neg {
				return errf("peres operands cannot be negated")
			}
		}
		a, b, t := operands[0].qubit, operands[1].qubit, operands[2].qubit
		circ.CCX(a, b, t)
		circ.CX(a, b)
	default:
		return errf("unsupported gate kind %q", spec)
	}
	return nil
}
