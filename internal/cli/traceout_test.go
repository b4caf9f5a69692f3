package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quantumdd/internal/algorithms"
)

// readTraceFile decodes a -trace-out file and returns the span names.
func readTraceFile(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	var names []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			names = append(names, ev.Name)
		}
	}
	return names
}

func TestDdsimTraceOut(t *testing.T) {
	circ := writeTemp(t, "ghz.qasm", algorithms.GHZ(4).QASM())
	tracePath := filepath.Join(t.TempDir(), "run.trace.json")
	var out, errb strings.Builder
	if code := RunDdsim([]string{"-trace-out", tracePath, circ}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	names := readTraceFile(t, tracePath)
	joined := strings.Join(names, "\n")
	for _, want := range []string{"ddsim", "step:gate", "dd:applygate"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace lacks %q spans:\n%s", want, joined)
		}
	}
}

func TestDdsimTraceOutWithMetricsDump(t *testing.T) {
	// Both sinks hang off the run's one engine observer; the dump and
	// the trace file must each see the run.
	circ := writeTemp(t, "bell.qasm", bellQASM)
	tracePath := filepath.Join(t.TempDir(), "run.trace.json")
	var out, errb strings.Builder
	if code := RunDdsim([]string{"-metrics-dump", "-trace-out", tracePath, circ}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "# metrics snapshot") {
		t.Fatalf("metrics dump missing:\n%s", out.String())
	}
	if strings.Contains(out.String(), `dd_op_duration_seconds_count{op="applygate"} 0`) {
		t.Fatalf("metrics collector missed the run:\n%s", out.String())
	}
	names := readTraceFile(t, tracePath)
	if !strings.Contains(strings.Join(names, "\n"), "dd:applygate") {
		t.Fatalf("trace recorder missed the run: %v", names)
	}
}

func TestDdverifyTraceOut(t *testing.T) {
	left := writeTemp(t, "qft.qasm", algorithms.QFT(3).QASM())
	right := writeTemp(t, "qftc.qasm", algorithms.QFTCompiled(3).QASM())
	tracePath := filepath.Join(t.TempDir(), "verify.trace.json")
	var out, errb strings.Builder
	if code := RunDdverify([]string{"-trace-out", tracePath, left, right}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	joined := strings.Join(readTraceFile(t, tracePath), "\n")
	for _, want := range []string{"ddverify", "verify-round:", "dd:applygatem"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace lacks %q spans:\n%s", want, joined)
		}
	}
}
