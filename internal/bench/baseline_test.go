package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareBaseline(t *testing.T) {
	base := map[string]float64{
		"speedup_v1":         1.5,
		"speedup_v1_best":    2.0,
		"V1_total_ms":        100, // machine-bound: never compared
		"V1_kernel_ops":      2062,
		"applym_ct_hits":     50000,
		"shape_overhead_pct": 1.0,
	}
	// Identical run: clean.
	if regs := CompareBaseline(base, base, 0.2); len(regs) != 0 {
		t.Fatalf("identical run regressed: %v", regs)
	}
	// Within tolerance: clean, including a catastrophic timing change.
	cur := map[string]float64{
		"speedup_v1":         1.25, // -17%
		"speedup_v1_best":    2.4,  // improvements never fail
		"V1_total_ms":        900,
		"V1_kernel_ops":      2062,
		"applym_ct_hits":     48000,
		"shape_overhead_pct": 1.1,
	}
	if regs := CompareBaseline(base, cur, 0.2); len(regs) != 0 {
		t.Fatalf("in-tolerance run regressed: %v", regs)
	}
	// Past tolerance in each direction class.
	cur = map[string]float64{
		"speedup_v1":         1.0, // higher-better, -33%
		"speedup_v1_best":    2.0,
		"V1_kernel_ops":      3000, // direction-free, +45%
		"applym_ct_hits":     50000,
		"shape_overhead_pct": 5.0, // lower-better, 5x
	}
	regs := CompareBaseline(base, cur, 0.2)
	var keys []string
	for _, r := range regs {
		keys = append(keys, r.Key)
	}
	want := []string{"V1_kernel_ops", "shape_overhead_pct", "speedup_v1"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("regressions %v, want %v", keys, want)
	}
	// Every portable key missing from the current run is reported; the
	// machine-bound one is not.
	keys = nil
	for _, r := range CompareBaseline(base, map[string]float64{}, 0.2) {
		keys = append(keys, r.Key)
	}
	want = []string{"V1_kernel_ops", "applym_ct_hits", "shape_overhead_pct", "speedup_v1", "speedup_v1_best"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("missing keys reported as %v, want %v", keys, want)
	}
}

func TestLoadBaseline(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(good, []byte(`{"pr":9,"after":{"ddbench":{"speedup_v1":1.5}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(good)
	if err != nil {
		t.Fatal(err)
	}
	if b.PR != 9 || b.After.Ddbench["speedup_v1"] != 1.5 {
		t.Fatalf("decoded %+v", b)
	}
	if _, err := LoadBaseline(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"pr":3,"after":{}}`), 0o644)
	if _, err := LoadBaseline(empty); err == nil {
		t.Fatal("metric-free baseline loaded")
	}
}
