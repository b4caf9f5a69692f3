package cli

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/dd"
)

// TestRunLeavesNoDefaultObserver runs each tool in-process with every
// mix of the observing flags and checks that the process default is
// empty again afterwards: a package created after the run must publish
// no stats snapshot, which only an observed package does.
func TestRunLeavesNoDefaultObserver(t *testing.T) {
	bell := writeTemp(t, "bell.qasm", bellQASM)
	left := writeTemp(t, "qft.qasm", algorithms.QFT(3).QASM())
	right := writeTemp(t, "qftc.qasm", algorithms.QFTCompiled(3).QASM())
	tools := []struct {
		name string
		run  func([]string, *strings.Builder, *strings.Builder) int
		args []string
	}{
		{"ddsim", func(a []string, o, e *strings.Builder) int { return RunDdsim(a, o, e) }, []string{bell}},
		{"ddverify", func(a []string, o, e *strings.Builder) int { return RunDdverify(a, o, e) }, []string{left, right}},
		{"ddbench", func(a []string, o, e *strings.Builder) int { return RunDdbench(a, o, e) }, []string{"-list"}},
	}
	h := 1 / math.Sqrt2
	hGate := dd.GateMatrix{complex(h, 0), complex(h, 0), complex(h, 0), complex(-h, 0)}
	for _, tool := range tools {
		for mask := 1; mask < 8; mask++ {
			if mask&2 != 0 && tool.name != "ddbench" {
				continue // only ddbench has a telemetry sampler
			}
			name := tool.name
			var flags []string
			if mask&1 != 0 {
				name += "/metrics-dump"
				flags = append(flags, "-metrics-dump")
			}
			if mask&2 != 0 {
				name += "/sample-interval"
				flags = append(flags, "-sample-interval", "50ms")
			}
			if mask&4 != 0 {
				name += "/trace-out"
				flags = append(flags, "-trace-out", filepath.Join(t.TempDir(), "run.trace.json"))
			}
			t.Run(name, func(t *testing.T) {
				var out, errb strings.Builder
				if code := tool.run(append(flags, tool.args...), &out, &errb); code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				p := dd.New(2)
				v := p.ZeroState()
				for i := 0; i < 64; i++ {
					v = p.ApplyGate(v, hGate, i%2)
				}
				if _, ok := p.LastStats(); ok {
					t.Fatal("a package created after the run is still observed")
				}
			})
		}
	}
}
