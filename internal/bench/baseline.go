package bench

// Baseline regression gating: ddbench -baseline BENCH_prN.json reruns
// the experiments and compares the merged summary against the
// baseline file's "after.ddbench" map, failing the run (nonzero exit)
// on regressions past a configurable threshold. Only machine-portable
// metrics are compared — keys carrying wall-clock or byte units
// (_ms/_ns/_bytes) vary with hardware and are skipped, while ratios,
// op counts, and cache-hit totals are properties of the algorithms.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// BaselineFile is the checked-in BENCH_prN.json schema (the fields
// the comparison needs; unknown fields are ignored).
type BaselineFile struct {
	PR    int    `json:"pr"`
	Title string `json:"title"`
	After struct {
		Commit  string             `json:"commit"`
		Ddbench map[string]float64 `json:"ddbench"`
	} `json:"after"`
}

// LoadBaseline reads and decodes a BENCH_prN.json file.
func LoadBaseline(path string) (*BaselineFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var b BaselineFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if len(b.After.Ddbench) == 0 {
		return nil, fmt.Errorf("bench: %s carries no after.ddbench metrics", path)
	}
	return &b, nil
}

// Regression is one baseline comparison failure.
type Regression struct {
	Key      string
	Baseline float64
	Current  float64
	Reason   string
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: baseline %g, current %g (%s)", r.Key, r.Baseline, r.Current, r.Reason)
}

// portableKey reports whether a summary key is machine-portable.
// Wall-clock and byte-sized metrics depend on the hardware the
// baseline was recorded on and are never compared.
func portableKey(k string) bool {
	for _, unit := range []string{"_ms", "_ns", "_bytes", "_seconds"} {
		if strings.HasSuffix(k, unit) {
			return false
		}
	}
	return true
}

// higherBetter reports whether a larger current value is an
// improvement for this key (speedup ratios, cache-hit totals).
func higherBetter(k string) bool {
	return strings.Contains(k, "speedup") ||
		strings.HasSuffix(k, "_hits") ||
		strings.HasSuffix(k, "_hit_rate") ||
		strings.HasSuffix(k, "_best")
}

// lowerBetter reports whether a smaller current value is an
// improvement (overhead percentages, peak sizes).
func lowerBetter(k string) bool {
	return strings.Contains(k, "overhead") || strings.Contains(k, "_peak")
}

// CompareBaseline checks current (a merged summary over the run's
// experiments) against the baseline metrics. threshold is the
// relative tolerance (0.2 = 20%): higher-better keys regress when
// current < baseline*(1-threshold), lower-better keys when
// current > baseline*(1+threshold), and direction-free keys (op
// counts and similar determinism witnesses) when they drift past the
// tolerance either way. A portable baseline key the run lacks is a
// regression, so a renamed or dropped metric cannot switch its gate
// off; keys only the run has are ignored — a baseline gates the
// experiments it recorded, not the whole suite.
func CompareBaseline(baseline, current map[string]float64, threshold float64) []Regression {
	if threshold < 0 {
		threshold = 0
	}
	keys := make([]string, 0, len(baseline))
	for k := range baseline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var regs []Regression
	for _, k := range keys {
		if !portableKey(k) {
			continue
		}
		base := baseline[k]
		cur, ok := current[k]
		if !ok {
			regs = append(regs, Regression{k, base, math.NaN(), "missing from the run"})
			continue
		}
		switch {
		case higherBetter(k):
			if cur < base*(1-threshold) {
				regs = append(regs, Regression{k, base, cur,
					fmt.Sprintf("below %g%% of baseline", (1-threshold)*100)})
			}
		case lowerBetter(k):
			if cur > base*(1+threshold) {
				regs = append(regs, Regression{k, base, cur,
					fmt.Sprintf("above %g%% of baseline", (1+threshold)*100)})
			}
		default:
			if base == 0 {
				if cur != 0 {
					regs = append(regs, Regression{k, base, cur, "baseline is zero"})
				}
				continue
			}
			if math.Abs(cur-base) > threshold*math.Abs(base) {
				regs = append(regs, Regression{k, base, cur,
					fmt.Sprintf("drifted more than %g%%", threshold*100)})
			}
		}
	}
	return regs
}
