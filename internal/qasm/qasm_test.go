package qasm

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quantumdd/internal/qc"
)

func parseOK(t *testing.T, src string) *qc.Circuit {
	t.Helper()
	c, err := Parse(src)
	if err != nil {
		t.Fatalf("parse failed: %v\nsource:\n%s", err, src)
	}
	return c
}

func parseErr(t *testing.T, src, wantSubstr string) {
	t.Helper()
	_, err := Parse(src)
	if err == nil {
		t.Fatalf("expected parse error containing %q, got success", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not contain %q", err.Error(), wantSubstr)
	}
}

const bellSrc = `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[1];
cx q[1],q[0];
measure q[0] -> c[0];
measure q[1] -> c[1];
`

func TestParseBell(t *testing.T) {
	c := parseOK(t, bellSrc)
	if c.NQubits != 2 || c.NClbits != 2 {
		t.Fatalf("register sizes: %d qubits, %d clbits", c.NQubits, c.NClbits)
	}
	if len(c.Ops) != 4 {
		t.Fatalf("op count %d, want 4", len(c.Ops))
	}
	if c.Ops[0].Gate != qc.H || c.Ops[0].Targets[0] != 1 {
		t.Fatalf("first op wrong: %s", c.Ops[0].String())
	}
	if c.Ops[1].Gate != qc.X || len(c.Ops[1].Controls) != 1 || c.Ops[1].Controls[0].Qubit != 1 {
		t.Fatalf("second op wrong: %s", c.Ops[1].String())
	}
	if c.Ops[2].Kind != qc.KindMeasure || c.Ops[2].Cbit != 0 {
		t.Fatalf("third op wrong: %s", c.Ops[2].String())
	}
}

func TestParseHeaderOptionalAndComments(t *testing.T) {
	c := parseOK(t, `
// line comment
/* block
   comment */
qreg q[1];
h q[0]; // trailing
`)
	if len(c.Ops) != 1 {
		t.Fatalf("ops = %d", len(c.Ops))
	}
}

func TestParseVersionRejected(t *testing.T) {
	parseErr(t, "OPENQASM 3.0;\nqreg q[1];\n", "unsupported OpenQASM version")
}

func TestParameterExpressions(t *testing.T) {
	c := parseOK(t, `
qreg q[1];
p(pi/2) q[0];
p(-pi/4) q[0];
p(2*pi/8) q[0];
p(cos(0)) q[0];
p(3^2) q[0];
p((pi+pi)/4) q[0];
`)
	want := []float64{math.Pi / 2, -math.Pi / 4, math.Pi / 4, 1, 9, math.Pi / 2}
	for i, w := range want {
		if got := c.Ops[i].Params[0]; math.Abs(got-w) > 1e-12 {
			t.Errorf("op %d angle = %v, want %v", i, got, w)
		}
	}
}

func TestBroadcasting(t *testing.T) {
	c := parseOK(t, `
qreg q[3];
h q;
`)
	if len(c.Ops) != 3 {
		t.Fatalf("broadcast produced %d ops, want 3", len(c.Ops))
	}
	for i, op := range c.Ops {
		if op.Gate != qc.H || op.Targets[0] != i {
			t.Fatalf("broadcast op %d wrong: %s", i, op.String())
		}
	}
	// Two-register broadcast: cx a,b with |a|=|b|=2.
	c = parseOK(t, `
qreg a[2];
qreg b[2];
cx a,b;
`)
	if len(c.Ops) != 2 {
		t.Fatalf("cx broadcast produced %d ops", len(c.Ops))
	}
	if c.Ops[1].Controls[0].Qubit != 1 || c.Ops[1].Targets[0] != 3 {
		t.Fatalf("flattening wrong: %s", c.Ops[1].String())
	}
	parseErr(t, "qreg a[2];\nqreg b[3];\ncx a,b;\n", "broadcast register sizes differ")
}

func TestMultipleRegistersFlatten(t *testing.T) {
	c := parseOK(t, `
qreg a[1];
qreg b[2];
x b[1];
`)
	if c.NQubits != 3 {
		t.Fatalf("flattened qubits = %d", c.NQubits)
	}
	if c.Ops[0].Targets[0] != 2 {
		t.Fatalf("b[1] should be global qubit 2, got %d", c.Ops[0].Targets[0])
	}
}

func TestGateMacroExpansion(t *testing.T) {
	c := parseOK(t, `
qreg q[2];
gate mygate(theta) a, b {
  h a;
  cx a, b;
  p(theta/2) b;
}
mygate(pi) q[1], q[0];
`)
	if len(c.Ops) != 3 {
		t.Fatalf("macro expanded to %d ops, want 3", len(c.Ops))
	}
	if c.Ops[0].Gate != qc.H || c.Ops[0].Targets[0] != 1 {
		t.Fatalf("macro op 0 wrong: %s", c.Ops[0].String())
	}
	if c.Ops[2].Gate != qc.P || math.Abs(c.Ops[2].Params[0]-math.Pi/2) > 1e-12 {
		t.Fatalf("macro parameter not substituted: %s", c.Ops[2].String())
	}
}

func TestNestedMacro(t *testing.T) {
	c := parseOK(t, `
qreg q[2];
gate inner a { h a; }
gate outer a, b { inner a; cx a, b; inner b; }
outer q[0], q[1];
`)
	if len(c.Ops) != 3 {
		t.Fatalf("nested macro expanded to %d ops, want 3", len(c.Ops))
	}
}

func TestMacroUsingPrimitiveU(t *testing.T) {
	c := parseOK(t, `
qreg q[1];
gate myh a { U(pi/2, 0, pi) a; }
myh q[0];
`)
	if len(c.Ops) != 1 || c.Ops[0].Gate != qc.U {
		t.Fatalf("U primitive expansion wrong: %+v", c.Ops)
	}
}

func TestQelib1Natives(t *testing.T) {
	c := parseOK(t, `
qreg q[3];
id q[0]; x q[0]; y q[0]; z q[0]; h q[0]; s q[0]; sdg q[0];
t q[0]; tdg q[0]; sx q[0]; sxdg q[0];
u1(0.1) q[0]; u2(0.1,0.2) q[0]; u3(0.1,0.2,0.3) q[0]; u(0.1,0.2,0.3) q[0]; p(0.1) q[0];
rx(0.1) q[0]; ry(0.1) q[0]; rz(0.1) q[0];
cx q[0],q[1]; cy q[0],q[1]; cz q[0],q[1]; ch q[0],q[1];
cp(0.1) q[0],q[1]; cu1(0.1) q[0],q[1]; crx(0.1) q[0],q[1]; cry(0.1) q[0],q[1]; crz(0.1) q[0],q[1];
cu3(0.1,0.2,0.3) q[0],q[1];
ccx q[0],q[1],q[2];
swap q[0],q[1];
cswap q[0],q[1],q[2];
`)
	if got := c.NumGates(); got != 32 {
		t.Fatalf("parsed %d gates, want 32", got)
	}
	// cswap lowers to controlled Swap.
	last := c.Ops[len(c.Ops)-1]
	if last.Gate != qc.Swap || len(last.Controls) != 1 {
		t.Fatalf("cswap lowering wrong: %s", last.String())
	}
}

func TestRedeclaredBuiltinSkipped(t *testing.T) {
	// qelib1.inc-style redeclaration of builtins must be tolerated.
	c := parseOK(t, `
qreg q[1];
gate h a { U(pi/2, 0, pi) a; }
h q[0];
`)
	if len(c.Ops) != 1 || c.Ops[0].Gate != qc.H {
		t.Fatalf("builtin redeclaration handling wrong: %+v", c.Ops)
	}
}

func TestClassicalControl(t *testing.T) {
	c := parseOK(t, `
qreg q[2];
creg c[2];
measure q[0] -> c[0];
if (c==1) x q[1];
`)
	op := c.Ops[1]
	if op.Cond == nil || op.Cond.Value != 1 || len(op.Cond.Bits) != 2 {
		t.Fatalf("condition not attached: %+v", op)
	}
	parseErr(t, "qreg q[1];\ncreg c[1];\nif (c==1) barrier q;\n", "cannot be classically controlled")
}

func TestMeasureVariants(t *testing.T) {
	c := parseOK(t, `
qreg q[2];
creg c[2];
measure q -> c;
`)
	if len(c.Ops) != 2 {
		t.Fatalf("register measure expanded to %d ops", len(c.Ops))
	}
	parseErr(t, "qreg q[2];\ncreg c[3];\nmeasure q -> c;\n", "sizes differ")
	parseErr(t, "qreg q[2];\ncreg c[2];\nmeasure q[0] -> c;\n", "both be indexed")
}

func TestResetAndBarrier(t *testing.T) {
	c := parseOK(t, `
qreg q[2];
reset q[0];
reset q;
barrier q;
`)
	if c.Ops[0].Kind != qc.KindReset {
		t.Fatal("reset not parsed")
	}
	if len(c.Ops) != 4 {
		t.Fatalf("ops = %d, want 4 (1 + 2 resets + barrier)", len(c.Ops))
	}
	if c.Ops[3].Kind != qc.KindBarrier {
		t.Fatal("barrier not parsed")
	}
}

func TestOpaqueIgnored(t *testing.T) {
	c := parseOK(t, `
qreg q[1];
opaque magic(alpha) a;
h q[0];
`)
	if len(c.Ops) != 1 {
		t.Fatalf("opaque polluted ops: %d", len(c.Ops))
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Parse("qreg q[1];\nbadgate q[0];\n")
	if err == nil {
		t.Fatal("expected unknown gate error")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if perr.Line != 2 {
		t.Fatalf("error line = %d, want 2", perr.Line)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"", "no quantum register"},
		{"qreg q[0];", "invalid register size"},
		// Integers must be whole tokens, not a digit prefix of a real.
		{"qreg q[2.7];", "invalid register size \"2.7\""},
		{"qreg q[2];\nx q[1.5];", "invalid index \"1.5\""},
		{"qreg q[1];\ncreg c[1];\nif(c==1e0) x q[0];", "invalid integer \"1e0\""},
		{"qreg q[1];\nqreg q[1];", "already declared"},
		{"qreg q[2];\nh q[5];", "out of range"},
		{"qreg q[2];\ncx q[0],q[0];", "overlap"},
		{"qreg q[1];\nh p[0];", "unknown quantum register"},
		{"qreg q[1];\np() q[0];", "takes 1 parameter"},
		{"qreg q[1];\nh q[0]", "expected"},
		{"qreg q[1];\ninclude \"other.inc\";", "qelib1.inc"},
		{"qreg q[1];\np(1/0) q[0];", "division by zero"},
		{"qreg q[1];\np(ln(-1)) q[0];", "ln of non-positive"},
		{"qreg q[1];\np(blah) q[0];", "unknown parameter"},
		{"qreg q[1];\np(foo(1)) q[0];", "unknown function"},
		{"qreg q[1];\nh q[0]; = ;", "unexpected '='"},
		{"qreg q[1];\n/* unterminated", "unterminated block comment"},
		{"qreg q[1];\nh \"str\";", "expected"},
		// List items must be separated by commas, with none trailing.
		{"qreg q[1];\nu3(0.1 0.2 0.3) q[0];", "qasm:2:8: expected ',' or ')', found number \"0.2\""},
		{"qreg q[1];\nu3(0.1,0.2,0.3,) q[0];", "qasm:2:16: expected expression, found ')'"},
		{"qreg q[2];\nbarrier q[0] q[1];", "qasm:2:14: expected ',' or ';', found identifier \"q\""},
		{"qreg q[2];\nbarrier q,;", "qasm:2:11: expected register operand"},
		{"qreg q[1];\ngate g(a b) x { rz(a) x; }", "qasm:2:10: expected ',' or ')', found identifier \"b\""},
		{"qreg q[1];\ngate g(a,) x { rz(a) x; }", "qasm:2:10: expected parameter name"},
		{"qreg q[1];\ngate g(a) x { U(a 0, 0) x; }", "qasm:2:19: expected ',' or ')', found number \"0\""},
		// A gate body may not apply a gate to one qubit twice.
		{"qreg q[1];\ngate g a { cx a, a; }\ng q[0];", "qasm:2:12: gate operands overlap on qubit 0"},
	}
	for _, c := range cases {
		parseErr(t, c.src, c.want)
	}
}

func TestRecursiveMacroRejected(t *testing.T) {
	parseErr(t, `
qreg q[1];
gate a x { b x; }
`, "unknown gate")
	// Mutual recursion is impossible in QASM 2.0 (use-before-def is an
	// error), but self-recursion through the depth guard:
	// a gate cannot call itself because it is not yet defined while
	// its body is parsed — verify that is reported.
	parseErr(t, `
qreg q[1];
gate a x { a x; }
a q[0];
`, "unknown gate")
}

func TestRoundTripWithQCExport(t *testing.T) {
	src := parseOK(t, bellSrc).QASM()
	c2 := parseOK(t, src)
	if c2.NumGates() != 2 || c2.NQubits != 2 {
		t.Fatalf("round trip changed the circuit:\n%s", src)
	}
}

func TestParseFileWithIncludes(t *testing.T) {
	dir := t.TempDir()
	lib := filepath.Join(dir, "mylib.inc")
	if err := os.WriteFile(lib, []byte("gate myh a { h a; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	main := filepath.Join(dir, "main.qasm")
	src := `OPENQASM 2.0;
include "qelib1.inc";
include "mylib.inc";
qreg q[1];
myh q[0];
`
	if err := os.WriteFile(main, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := ParseFile(main)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 1 || c.Ops[0].Gate != qc.H {
		t.Fatalf("included gate not expanded: %+v", c.Ops)
	}
	// Missing include errors.
	bad := filepath.Join(dir, "bad.qasm")
	if err := os.WriteFile(bad, []byte("include \"nope.inc\";\nqreg q[1];\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFile(bad); err == nil {
		t.Fatal("missing include accepted")
	}
}

func TestIncludeWithoutResolverRejected(t *testing.T) {
	parseErr(t, "include \"other.inc\";\nqreg q[1];\n", "only \"qelib1.inc\" is built in")
}

// TestIncludeCycleGuard: the include guard bounds how many included
// files are open at once, which stops a cycle, not how many a program
// includes.
func TestIncludeCycleGuard(t *testing.T) {
	files := map[string]string{
		"self.inc":  "include \"self.inc\";\n", // endless self-include
		"empty.inc": "",
	}
	// deep0.inc includes deep1.inc, …, deep16.inc: 17 files open at once.
	for i := 0; i <= maxIncludeDepth; i++ {
		next := ""
		if i < maxIncludeDepth {
			next = fmt.Sprintf("include \"deep%d.inc\";\n", i+1)
		}
		files[fmt.Sprintf("deep%d.inc", i)] = next
	}
	resolve := func(name string) (string, error) { return files[name], nil }
	for _, tc := range []struct {
		name, src string
		guarded   bool
	}{
		{"self-include", "include \"self.inc\";\nqreg q[1];\n", true},
		{"17 nested", "include \"deep0.inc\";\nqreg q[1];\n", true},
		{"16 nested", "include \"deep1.inc\";\nqreg q[1];\n", false},
		{"17 siblings", strings.Repeat("include \"empty.inc\";\n", maxIncludeDepth+1) + "qreg q[1];\n", false},
	} {
		_, err := ParseWithIncludes(tc.src, resolve)
		if tc.guarded && (err == nil || !strings.Contains(err.Error(), "nested deeper")) {
			t.Errorf("%s: error %v, want the nesting guard", tc.name, err)
		}
		if !tc.guarded && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
