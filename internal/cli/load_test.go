package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/realfmt"
	"quantumdd/internal/verify"
	"quantumdd/internal/vis"
	"quantumdd/internal/web"
)

func TestRealToQASMCrossFormatEquivalence(t *testing.T) {
	// A Toffoli network loaded from .real must be equivalent to the
	// same network written in QASM.
	realSrc := `
.numvars 3
.variables a b c
.begin
t3 a b c
t2 a b
.end
`
	qasmSrc := `
qreg q[3];
ccx q[0],q[1],q[2];
cx q[0],q[1];
`
	cr, err := web.ParseCircuit(realSrc, "real")
	if err != nil {
		t.Fatal(err)
	}
	cq, err := web.ParseCircuit(qasmSrc, "qasm")
	if err != nil {
		t.Fatal(err)
	}
	res, err := verify.Check(cr, cq, verify.Proportional)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("cross-format circuits not equivalent")
	}
	// And the .real writer round-trips through the auto-detecting loader.
	serialized, err := realfmt.WriteString(cr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := web.ParseCircuit(serialized, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err = verify.Check(cr, back, verify.Proportional)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("real round trip broke equivalence")
	}
}

func TestSimulationFrames(t *testing.T) {
	frames, err := simulationFrames(algorithms.BellMeasured(), 1, vis.Style{Mode: vis.Modern})
	if err != nil {
		t.Fatal(err)
	}
	// initial + 4 ops.
	if len(frames) != 5 {
		t.Fatalf("got %d frames, want 5", len(frames))
	}
	for i, f := range frames {
		if !strings.Contains(f, "<svg") {
			t.Fatalf("frame %d is not SVG", i)
		}
	}
	if !strings.Contains(frames[0], "initial state") {
		t.Fatal("first frame missing caption")
	}
}

func TestLoadCircuitErrors(t *testing.T) {
	if _, err := LoadCircuitFile(writeTemp(t, "garbage.qasm", "garbage"), ""); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadCircuitFile(writeTemp(t, "bell.qasm", bellQASM), "real"); err == nil {
		t.Fatal("format mismatch accepted")
	}
}

func TestLoadCircuitFile(t *testing.T) {
	dir := t.TempDir()
	lib := filepath.Join(dir, "lib.inc")
	if err := os.WriteFile(lib, []byte("gate myx a { x a; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	main := filepath.Join(dir, "main.qasm")
	if err := os.WriteFile(main, []byte("include \"lib.inc\";\nqreg q[1];\nmyx q[0];\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCircuitFile(main, "")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 1 {
		t.Fatalf("included gate lost: %d gates", c.NumGates())
	}
	// .real by extension.
	realPath := filepath.Join(dir, "net.real")
	if err := os.WriteFile(realPath, []byte(".numvars 2\n.variables a b\n.begin\nt2 a b\n.end\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCircuitFile(realPath, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.NQubits != 2 {
		t.Fatal(".real extension not honored")
	}
	if _, err := LoadCircuitFile(main, "weird"); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := LoadCircuitFile(filepath.Join(dir, "missing.qasm"), ""); err == nil {
		t.Fatal("missing file accepted")
	}
}
