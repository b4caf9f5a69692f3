package realfmt

import (
	"bufio"
	"errors"
	"strings"
	"testing"

	"quantumdd/internal/dd"
	"quantumdd/internal/qc"
	"quantumdd/internal/verify"
)

const toffoliReal = `
# a standard RevLib header
.version 1.0
.numvars 3
.variables a b c
.inputs a b c
.outputs a b c
.constants ---
.garbage ---
.begin
t3 a b c
t2 a b
t1 a
.end
`

func TestParseToffoliNetwork(t *testing.T) {
	c, err := ParseString(toffoliReal)
	if err != nil {
		t.Fatal(err)
	}
	if c.NQubits != 3 {
		t.Fatalf("qubits = %d", c.NQubits)
	}
	if c.NumGates() != 3 {
		t.Fatalf("gates = %d", c.NumGates())
	}
	// t3 a b c: controls a(0), b(1), target c(2).
	op := c.Ops[0]
	if op.Gate != qc.X || op.Targets[0] != 2 || len(op.Controls) != 2 {
		t.Fatalf("t3 parsed wrong: %s", op.String())
	}
	// t1 a: plain NOT on qubit 0.
	op = c.Ops[2]
	if op.Gate != qc.X || op.Targets[0] != 0 || len(op.Controls) != 0 {
		t.Fatalf("t1 parsed wrong: %s", op.String())
	}
}

func TestParseNegativeControls(t *testing.T) {
	c, err := ParseString(`
.numvars 2
.variables a b
.begin
t2 -a b
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	op := c.Ops[0]
	if !op.Controls[0].Neg {
		t.Fatalf("negative control not parsed: %s", op.String())
	}
}

func TestParseFredkinAndV(t *testing.T) {
	c, err := ParseString(`
.numvars 3
.variables a b c
.begin
f3 a b c
v a b
v+ a b
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ops[0].Gate != qc.Swap || len(c.Ops[0].Controls) != 1 {
		t.Fatalf("fredkin parsed wrong: %s", c.Ops[0].String())
	}
	if c.Ops[1].Gate != qc.V || c.Ops[1].Targets[0] != 1 {
		t.Fatalf("v parsed wrong: %s", c.Ops[1].String())
	}
	if c.Ops[2].Gate != qc.Vdg {
		t.Fatalf("v+ parsed wrong: %s", c.Ops[2].String())
	}
}

func TestVVEqualsCNOT(t *testing.T) {
	// The classic identity: a CCX equals the v/v+ network
	// (Barenco et al.); here the simpler single-control version:
	// v a b; v a b  ==  t1-free CNOT? No — V·V = X, so two
	// controlled-V with the same control equal one CNOT.
	vv, err := ParseString(`
.numvars 2
.variables a b
.begin
v a b
v a b
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	cx, err := ParseString(`
.numvars 2
.variables a b
.begin
t2 a b
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := verify.Check(vv, cx, verify.Construction)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("v;v is not equivalent to CNOT")
	}
}

func TestPeresDecomposition(t *testing.T) {
	c, err := ParseString(`
.numvars 3
.variables a b c
.begin
p3 a b c
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 2 {
		t.Fatalf("peres expanded to %d gates, want 2", c.NumGates())
	}
	// Check the permutation semantics: |110⟩ (a=0,b=1,c=1 in our
	// little-endian variable order => bits: a=q0, b=q1, c=q2).
	p := dd.New(3)
	u, _, err := verify.BuildFunctionality(p, c)
	if err != nil {
		t.Fatal(err)
	}
	// Peres: c ^= a&b, then b ^= a. For a=1,b=1,c=0 (index 0b011):
	// c -> 1, b -> 0 => index 0b101.
	if got := dd.MatrixEntry(u, 0b101, 0b011); got != 1 {
		t.Fatalf("peres action wrong: entry = %v", got)
	}
}

func TestMissingVariablesSynthesized(t *testing.T) {
	c, err := ParseString(`
.numvars 2
.begin
t2 x0 x1
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.NQubits != 2 || c.NumGates() != 1 {
		t.Fatal("synthesized variable names not working")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{".begin\n.end", ".begin before .numvars"},
		{".numvars 2\n.variables a\n.begin\n.end", ".variables lists 1 names"},
		{".numvars 0\n.begin\n.end", "invalid .numvars"},
		{".numvars 2\n.variables a a\n.begin\n.end", "duplicate variable"},
		{".numvars 2\n.variables a b\n.begin\nt2 a z\n.end", "unknown variable"},
		{".numvars 2\n.variables a b\n.begin\nt2 a a\n.end", "used twice"},
		{".numvars 2\n.variables a b\n.begin\nt3 a b\n.end", "expects 3 operands"},
		{".numvars 2\n.variables a b\n.begin\nq2 a b\n.end", "unsupported gate kind"},
		{".numvars 2\n.variables a b\n.begin\nt2 a -b\n.end", "cannot be negated"},
		{".numvars 2\n.variables a b\n.begin\nt2 a b\n", "missing .end"},
		{".numvars 2\n.variables a b\n.begin\n.end\nt2 a b\n", "content after .end"},
		{"t2 a b\n.end", "before .begin"},
		{".numvars 1\n.define foo\n.begin\n.end", "not supported"},
	}
	for _, c := range cases {
		_, err := ParseString(c.src)
		if err == nil {
			t.Errorf("source %q: expected error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("source %q: error %q does not contain %q", c.src, err.Error(), c.want)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	c, err := ParseString(`
# leading comment

.numvars 1

# between directives
.begin
t1 x0
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 1 {
		t.Fatal("comments broke parsing")
	}
}

// TestLineLimit checks that both entry points accept a line shorter
// than maxLine (4 MB) and reject one of maxLine bytes with
// bufio.ErrTooLong, whatever size their line buffer starts at.
func TestLineLimit(t *testing.T) {
	head := ".numvars 1\n.variables a\n.begin\nt1 a\n#"
	for _, n := range []int{maxLine - 1, maxLine} {
		src := head + strings.Repeat("x", n-1) + "\n.end\n"
		_, err1 := ParseString(src)
		_, err2 := Parse(strings.NewReader(src))
		for _, err := range []error{err1, err2} {
			if n < maxLine && err != nil {
				t.Errorf("a %d-byte line: %v", n, err)
			}
			if n == maxLine && !errors.Is(err, bufio.ErrTooLong) {
				t.Errorf("a %d-byte line: error %v, want %v", n, err, bufio.ErrTooLong)
			}
		}
	}
}
