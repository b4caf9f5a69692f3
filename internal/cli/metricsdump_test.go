package cli

import (
	"strings"
	"testing"

	"quantumdd/internal/algorithms"
)

func TestDdsimMetricsDump(t *testing.T) {
	path := writeTemp(t, "bell.qasm", bellQASM)
	var out, errb strings.Builder
	if code := RunDdsim([]string{"-metrics-dump", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	o := out.String()
	for _, want := range []string{
		"# metrics snapshot (Prometheus text format)",
		"# TYPE dd_op_duration_seconds histogram",
		`dd_op_duration_seconds_count{op="applygate"}`,
		"dd_compute_table_hit_ratio",
		"dd_nodes_live",
	} {
		if !strings.Contains(o, want) {
			t.Fatalf("dump missing %q:\n%s", want, o)
		}
	}
	// The simulator routed gates through the apply kernel, so its
	// histogram is nonempty and the engine's final stats landed in the
	// gauges.
	if strings.Contains(o, `dd_op_duration_seconds_count{op="applygate"} 0`) {
		t.Fatalf("applygate histogram empty after a run:\n%s", o)
	}
	if strings.Contains(o, "\ndd_nodes_live 0\n") {
		t.Fatalf("live-node gauge not recorded:\n%s", o)
	}
	// The snapshot prints after the regular report.
	if strings.Index(o, "final DD:") > strings.Index(o, "# metrics snapshot") {
		t.Fatalf("snapshot printed before the report:\n%s", o)
	}
}

func TestDdverifyMetricsDump(t *testing.T) {
	left := writeTemp(t, "qft.qasm", algorithms.QFT(3).QASM())
	right := writeTemp(t, "qftc.qasm", algorithms.QFTCompiled(3).QASM())
	var out, errb strings.Builder
	if code := RunDdverify([]string{"-metrics-dump", left, right}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	o := out.String()
	if !strings.Contains(o, "result: EQUIVALENT") {
		t.Fatalf("verdict missing:\n%s", o)
	}
	// Verification runs on the matrix-apply kernel, so its histogram
	// must be hot.
	if !strings.Contains(o, `dd_op_duration_seconds_count{op="applygatem"}`) {
		t.Fatalf("dump missing matrix-apply histogram:\n%s", o)
	}
	if strings.Contains(o, `dd_op_duration_seconds_count{op="applygatem"} 0`) {
		t.Fatalf("applygatem histogram empty after verification:\n%s", o)
	}
	if !strings.Contains(o, " kernel)") || strings.Contains(o, "(0 kernel)") {
		t.Fatalf("kernel op count missing from report:\n%s", o)
	}
}

func TestDdbenchMetricsDump(t *testing.T) {
	var out, errb strings.Builder
	if code := RunDdbench([]string{"-metrics-dump", "-exp", "E6"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	o := out.String()
	if !strings.Contains(o, "# TYPE dd_op_duration_seconds histogram") {
		t.Fatalf("dump missing op histograms:\n%s", o)
	}
}
