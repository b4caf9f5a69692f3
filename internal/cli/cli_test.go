package cli

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quantumdd/internal/algorithms"
)

// writeTemp writes content to a temp file and returns its path.
func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const bellQASM = "qreg q[2];\ncreg c[2];\nh q[1];\ncx q[1],q[0];\nmeasure q -> c;\n"

func TestDdsimBasicRun(t *testing.T) {
	path := writeTemp(t, "bell.qasm", bellQASM)
	var out, errb strings.Builder
	code := RunDdsim([]string{"-seed", "3", "-shots", "100", "-amplitudes", "-trace", "-stats", "-draw", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	o := out.String()
	for _, want := range []string{
		"circuit: 2 qubits", "classical register", "final DD:",
		"samples (100 shots):", "root --(", "dd stats:", "gates: cx=1 h=1",
	} {
		if !strings.Contains(o, want) {
			t.Fatalf("output missing %q:\n%s", want, o)
		}
	}
	// Measurements collapse the Bell state: both classical bits agree.
	if !strings.Contains(o, "c[0]=0 c[1]=0") && !strings.Contains(o, "c[0]=1 c[1]=1") {
		t.Fatalf("Bell outcomes disagree:\n%s", o)
	}
}

func TestDdsimRealInput(t *testing.T) {
	path := writeTemp(t, "toff.real", ".numvars 3\n.variables a b c\n.begin\nt1 a\nt1 b\nt3 a b c\n.end\n")
	var out, errb strings.Builder
	if code := RunDdsim([]string{"-amplitudes", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	// |111> after X, X, CCX.
	if !strings.Contains(out.String(), "|111>") {
		t.Fatalf("toffoli result wrong:\n%s", out.String())
	}
}

func TestDdsimErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := RunDdsim([]string{}, &out, &errb); code != 2 {
		t.Fatalf("missing file arg: exit %d", code)
	}
	if code := RunDdsim([]string{"/nonexistent/file.qasm"}, &out, &errb); code != 1 {
		t.Fatalf("missing file: exit %d", code)
	}
	bad := writeTemp(t, "bad.qasm", "this is not qasm")
	if code := RunDdsim([]string{bad}, &out, &errb); code != 1 {
		t.Fatalf("parse error: exit %d", code)
	}
	big := writeTemp(t, "big.qasm", "qreg q[20];\nh q[0];\n")
	if code := RunDdsim([]string{"-amplitudes", big}, &out, &errb); code != 1 {
		t.Fatalf("dense-expansion guard: exit %d", code)
	}
	if code := RunDdsim([]string{"-badflag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag: exit %d", code)
	}
}

func TestDdverifyEquivalentPair(t *testing.T) {
	left := writeTemp(t, "qft.qasm", algorithms.QFT(3).QASM())
	right := writeTemp(t, "qftc.qasm", algorithms.QFTCompiled(3).QASM())
	var out, errb strings.Builder
	code := RunDdverify([]string{"-strategy", "proportional", "-trace", left, right}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	o := out.String()
	if !strings.Contains(o, "result: EQUIVALENT") {
		t.Fatalf("missing verdict:\n%s", o)
	}
	if !strings.Contains(o, "peak 9 nodes") {
		t.Fatalf("Ex. 12 peak not reported:\n%s", o)
	}
	if !strings.Contains(o, "G'") {
		t.Fatalf("trace missing:\n%s", o)
	}
}

func TestDdverifyNonEquivalent(t *testing.T) {
	left := writeTemp(t, "a.qasm", "qreg q[2];\nx q[0];\n")
	right := writeTemp(t, "b.qasm", "qreg q[2];\nx q[1];\n")
	var out, errb strings.Builder
	code := RunDdverify([]string{"-diagnose", left, right}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	o := out.String()
	if !strings.Contains(o, "NOT EQUIVALENT") || !strings.Contains(o, "counterexample:") {
		t.Fatalf("diagnosis missing:\n%s", o)
	}
	if !strings.Contains(o, "Hilbert-Schmidt overlap") {
		t.Fatalf("overlap missing:\n%s", o)
	}
}

func TestDdverifyErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := RunDdverify([]string{"one-arg-only"}, &out, &errb); code != 2 {
		t.Fatalf("arg count: exit %d", code)
	}
	a := writeTemp(t, "a.qasm", "qreg q[1];\nh q[0];\n")
	b := writeTemp(t, "b.qasm", "qreg q[1];\nh q[0];\n")
	if code := RunDdverify([]string{"-strategy", "bogus", a, b}, &out, &errb); code != 2 {
		t.Fatalf("bad strategy: exit %d", code)
	}
	if code := RunDdverify([]string{a, "/nonexistent"}, &out, &errb); code != 2 {
		t.Fatalf("missing file: exit %d", code)
	}
	measured := writeTemp(t, "m.qasm", "qreg q[1];\ncreg c[1];\nmeasure q[0]->c[0];\n")
	if code := RunDdverify([]string{a, measured}, &out, &errb); code != 2 {
		t.Fatalf("non-unitary: exit %d", code)
	}
}

func TestDddrawOutputs(t *testing.T) {
	circ := writeTemp(t, "bell.qasm", "qreg q[2];\nh q[1];\ncx q[1],q[0];\n")
	var out, errb strings.Builder
	if code := RunDddraw([]string{circ}, &out, &errb); code != 0 {
		t.Fatalf("svg: exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "<svg") {
		t.Fatal("stdout not SVG")
	}
	// DOT file output.
	dotPath := filepath.Join(t.TempDir(), "dd.dot")
	out.Reset()
	if code := RunDddraw([]string{"-out", dotPath, circ}, &out, &errb); code != 0 {
		t.Fatalf("dot: exit %d", code)
	}
	data, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph dd") {
		t.Fatal("dot file wrong")
	}
	// ASCII output.
	txtPath := filepath.Join(t.TempDir(), "dd.txt")
	if code := RunDddraw([]string{"-what", "functionality", "-out", txtPath, circ}, &out, &errb); code != 0 {
		t.Fatalf("txt: exit %d", code)
	}
	data, err = os.ReadFile(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "root --(") {
		t.Fatalf("txt file wrong: %s", data)
	}
	// Color wheel.
	out.Reset()
	if code := RunDddraw([]string{"-colorwheel"}, &out, &errb); code != 0 {
		t.Fatal("colorwheel failed")
	}
	if !strings.Contains(out.String(), "<svg") {
		t.Fatal("wheel not SVG")
	}
}

func TestDddrawShapeReport(t *testing.T) {
	circ := writeTemp(t, "bell.qasm", "qreg q[2];\nh q[1];\ncx q[1],q[0];\n")
	var out, errb strings.Builder
	if code := RunDddraw([]string{"-shape", circ}, &out, &errb); code != 0 {
		t.Fatalf("state shape: exit %d: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"shape: vector DD, 2 levels",
		"sharing:",
		"level  nodes  edges  ut-load  occupancy",
		"edge-weight magnitudes",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("state shape report lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "identity padding") {
		t.Error("vector report must not carry the identity-padding row")
	}
	out.Reset()
	if code := RunDddraw([]string{"-what", "functionality", "-shape", circ}, &out, &errb); code != 0 {
		t.Fatalf("functionality shape: exit %d: %s", code, errb.String())
	}
	got = out.String()
	if !strings.Contains(got, "shape: matrix DD, 2 levels") || !strings.Contains(got, "identity padding:") {
		t.Errorf("functionality shape report wrong:\n%s", got)
	}
}

func TestDddrawErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := RunDddraw([]string{}, &out, &errb); code != 2 {
		t.Fatalf("missing arg: exit %d", code)
	}
	circ := writeTemp(t, "c.qasm", "qreg q[1];\nh q[0];\n")
	if code := RunDddraw([]string{"-style", "cubist", circ}, &out, &errb); code != 2 {
		t.Fatalf("bad style: exit %d", code)
	}
	if code := RunDddraw([]string{"-what", "banana", circ}, &out, &errb); code != 2 {
		t.Fatalf("bad what: exit %d", code)
	}
	measured := writeTemp(t, "m.qasm", "qreg q[1];\ncreg c[1];\nmeasure q[0]->c[0];\n")
	if code := RunDddraw([]string{"-what", "functionality", measured}, &out, &errb); code != 1 {
		t.Fatalf("non-unitary functionality: exit %d", code)
	}
}

func TestDdbenchListAndSingle(t *testing.T) {
	var out, errb strings.Builder
	if code := RunDdbench([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatal("list failed")
	}
	if !strings.Contains(out.String(), "E6") || !strings.Contains(out.String(), "A4") {
		t.Fatalf("list incomplete:\n%s", out.String())
	}
	out.Reset()
	if code := RunDdbench([]string{"-exp", "E1"}, &out, &errb); code != 0 {
		t.Fatal("E1 failed")
	}
	if !strings.Contains(out.String(), "DD nodes") {
		t.Fatalf("E1 output wrong:\n%s", out.String())
	}
	if code := RunDdbench([]string{"-exp", "E99"}, &out, &errb); code != 2 {
		t.Fatal("unknown experiment accepted")
	}
}

func TestParseStrategyNames(t *testing.T) {
	for _, name := range []string{"construction", "sequential", "one-to-one", "onetoone", "proportional", "lookahead"} {
		if _, err := ParseStrategy(name); err != nil {
			t.Fatalf("strategy %q rejected", name)
		}
	}
	if _, err := ParseStrategy("x"); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}

func TestDdconvertRealToQASM(t *testing.T) {
	path := writeTemp(t, "net.real", ".numvars 3\n.variables a b c\n.begin\nt3 a b c\nt2 -a b\nf3 a b c\n.end\n")
	var out, errb strings.Builder
	code := RunDdconvert([]string{"-to", "qasm", "-check", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	o := out.String()
	for _, want := range []string{"OPENQASM 2.0;", "ccx", "cswap q[0],q[1],q[2];"} {
		if !strings.Contains(o, want) {
			t.Fatalf("qasm output missing %q:\n%s", want, o)
		}
	}
	// Negative control must be conjugated with X gates.
	if strings.Count(o, "x q[0];") < 2 {
		t.Fatalf("negative control not X-conjugated:\n%s", o)
	}
	if !strings.Contains(errb.String(), "verified equivalent") {
		t.Fatalf("check did not run: %s", errb.String())
	}
}

func TestDdconvertQASMToReal(t *testing.T) {
	path := writeTemp(t, "toff.qasm", "qreg q[3];\nccx q[0],q[1],q[2];\ncx q[1],q[0];\nx q[2];\n")
	var out, errb strings.Builder
	code := RunDdconvert([]string{"-to", "real", "-check", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	o := out.String()
	for _, want := range []string{".numvars 3", "t3 x0 x1 x2", "t2 x1 x0", "t1 x2", ".end"} {
		if !strings.Contains(o, want) {
			t.Fatalf("real output missing %q:\n%s", want, o)
		}
	}
}

func TestDdconvertErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := RunDdconvert([]string{}, &out, &errb); code != 2 {
		t.Fatalf("missing arg: exit %d", code)
	}
	path := writeTemp(t, "h.qasm", "qreg q[1];\nh q[0];\n")
	if code := RunDdconvert([]string{"-to", "real", path}, &out, &errb); code != 1 {
		t.Fatalf("H to .real should fail: exit %d", code)
	}
	if code := RunDdconvert([]string{"-to", "xml", path}, &out, &errb); code != 2 {
		t.Fatalf("bad target: exit %d", code)
	}
}

func TestDddrawAnimate(t *testing.T) {
	circ := writeTemp(t, "bell.qasm", "qreg q[2];\nh q[1];\ncx q[1],q[0];\n")
	var out, errb strings.Builder
	if code := RunDddraw([]string{"-animate", "-framedur", "0.5", circ}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if strings.Count(out.String(), "<set attributeName=\"visibility\"") != 3 {
		t.Fatalf("expected 3 animation frames (init + 2 gates)")
	}
}

func TestDdsimNoiseMode(t *testing.T) {
	path := writeTemp(t, "ghz.qasm", "qreg q[3];\nh q[2];\ncx q[2],q[1];\ncx q[1],q[0];\n")
	var out, errb strings.Builder
	code := RunDdsim([]string{"-noise", "0.05", "-trajectories", "300", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	o := out.String()
	if !strings.Contains(o, "noisy simulation: 300 trajectories") {
		t.Fatalf("missing noise header:\n%s", o)
	}
	if !strings.Contains(o, "|000>") {
		t.Fatalf("missing dominant outcome:\n%s", o)
	}
	for _, bad := range []string{"2", "-0.1", "NaN", "+Inf"} {
		if code := RunDdsim([]string{"-noise", bad, path}, &out, &errb); code != 1 {
			t.Fatalf("invalid noise %s accepted: exit %d", bad, code)
		}
	}
}

// TestDdsimNoiseOutcomeFooter: the outcome table lists at most 16
// rows, and the "more outcomes" footer appears only when rows were
// left out. A uniform 4-qubit register has exactly 16 outcomes; a
// 5-qubit one has 32.
func TestDdsimNoiseOutcomeFooter(t *testing.T) {
	for _, tc := range []struct {
		qubits int
		footer string
	}{
		{4, ""},
		{5, "  … 16 more outcomes\n"},
	} {
		code := fmt.Sprintf("qreg q[%d];\n", tc.qubits)
		for q := 0; q < tc.qubits; q++ {
			code += fmt.Sprintf("h q[%d];\n", q)
		}
		path := writeTemp(t, "uniform.qasm", code)
		var out, errb strings.Builder
		if exit := RunDdsim([]string{"-noise", "0.001", "-trajectories", "4000", path}, &out, &errb); exit != 0 {
			t.Fatalf("%d qubits: exit %d: %s", tc.qubits, exit, errb.String())
		}
		o := out.String()
		if rows := strings.Count(o, ">  "); rows != 16 {
			t.Fatalf("%d qubits: %d outcome rows, want 16:\n%s", tc.qubits, rows, o)
		}
		hasFooter := strings.Contains(o, "more outcomes")
		if tc.footer == "" && hasFooter {
			t.Fatalf("%d qubits: footer printed although every outcome is listed:\n%s", tc.qubits, o)
		}
		if tc.footer != "" && !strings.HasSuffix(o, tc.footer) {
			t.Fatalf("%d qubits: output does not end with %q:\n%s", tc.qubits, tc.footer, o)
		}
	}
}

func TestDdconvertFileOutput(t *testing.T) {
	path := writeTemp(t, "toff.qasm", "qreg q[2];\ncx q[0],q[1];\n")
	outPath := filepath.Join(t.TempDir(), "out.real")
	var out, errb strings.Builder
	if code := RunDdconvert([]string{"-to", "real", "-out", outPath, path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "t2 x0 x1") {
		t.Fatalf("converted file wrong:\n%s", data)
	}
	if code := RunDdconvert([]string{"-out", "/no/such/dir/x.qasm", path}, &out, &errb); code != 1 {
		t.Fatalf("unwritable output accepted: exit %d", code)
	}
	if code := RunDdconvert([]string{"/nonexistent.qasm"}, &out, &errb); code != 1 {
		t.Fatalf("missing input accepted: exit %d", code)
	}
	// -check on a circuit with measurements is skipped with a note.
	m := writeTemp(t, "m.qasm", "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\n")
	errb.Reset()
	if code := RunDdconvert([]string{"-to", "qasm", "-check", m}, &out, &errb); code != 0 {
		t.Fatalf("measured circuit conversion failed: exit %d", code)
	}
	if !strings.Contains(errb.String(), "-check skipped") {
		t.Fatalf("skip note missing: %s", errb.String())
	}
}

// TestDdsimShotsSampleMeasuredCircuit: shots of a circuit that measures
// sample the circuit, not the collapsed state of one run. Each of the
// measured Bell pair's two outcomes lands within 5σ of 500 in 1000
// shots, on one worker and on two.
func TestDdsimShotsSampleMeasuredCircuit(t *testing.T) {
	path := writeTemp(t, "bell.qasm", bellQASM)
	for _, workers := range []string{"1", "2"} {
		var out, errb strings.Builder
		if code := RunDdsim([]string{"-seed", "3", "-shots", "1000", "-workers", workers, path}, &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		o := out.String()
		const sigma5 = 5 * 15.82 // 5·√(1000·½·½)
		total := 0
		for _, outcome := range []string{"|00>", "|11>"} {
			var n int
			i := strings.Index(o, "  "+outcome)
			if i < 0 {
				t.Fatalf("workers %s: outcome %s never sampled:\n%s", workers, outcome, o)
			}
			if _, err := fmt.Sscanf(o[i+2+len(outcome):], "%d", &n); err != nil {
				t.Fatal(err)
			}
			if math.Abs(float64(n-500)) > sigma5 {
				t.Errorf("workers %s: %s sampled %d times in 1000 shots, want 500 ± %.0f:\n%s", workers, outcome, n, sigma5, o)
			}
			total += n
		}
		if total != 1000 {
			t.Errorf("workers %s: %d of 1000 shots on |00> and |11>:\n%s", workers, total, o)
		}
	}
}

// TestDdsimShotsMeasureFreeUnchanged pins the histogram of a circuit
// without measurement, reset or classical control: one run, then
// samples of its final state.
func TestDdsimShotsMeasureFreeUnchanged(t *testing.T) {
	path := writeTemp(t, "mf.qasm", "qreg q[3];\nh q[0];\nry(0.7) q[1];\ncx q[0],q[2];\n")
	var out, errb strings.Builder
	if code := RunDdsim([]string{"-seed", "5", "-shots", "1000", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	const want = `circuit: 3 qubits, 0 classical bits, 3 operations (3 gates)
final DD: 5 nodes, peak 5 nodes (dense state would hold 8 amplitudes)
samples (1000 shots):
  |000>     477  (47.70%)
  |101>     407  (40.70%)
  |010>      61  (6.10%)
  |111>      55  (5.50%)
`
	if got := out.String(); got != want {
		t.Fatalf("output changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
