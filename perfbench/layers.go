package main

// The traced run (--trace 1): an untraced closed-loop phase records the
// request log and each request's handler time, the log is replayed
// layer by layer twice (spans on, then spans off, for the tracing
// overhead), and the per-layer metrics are read off the span self
// times and the engine counters. The spans are written as Chrome
// trace-event JSON, the format of the server's own
// /debug/sessions/{id}/trace, together with a summary holding the
// per-request-kind split and the environment.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"quantumdd/internal/algorithms"
	"quantumdd/internal/obs/trace"
	"quantumdd/internal/sim"
	"quantumdd/internal/web"
)

// maxExportSpans bounds the written trace; metrics use every span.
const maxExportSpans = 100000

// layerGroups attributes span names to the parts of a request the
// split reports; request roots and unlisted names are replay glue.
var layerGroups = map[string]string{
	"qasm.parse":           "parse",
	"sim.new":              "engine",
	"sim.step":             "engine",
	"sim.back":             "engine",
	"sim.noisy":            "engine",
	"verify.new":           "engine",
	"verify.apply":         "engine",
	"verify.identity":      "engine",
	"verify.functionality": "engine",
	"dd.frame_stats":       "engine",
	"vis.graph":            "render",
	"vis.svg":              "render",
	"vis.export":           "render",
	"web.encode":           "render",
}

// kindStats is the split of one request kind.
type kindStats struct {
	N         int                `json:"n"`
	HandlerUS float64            `json:"handler_us_mean"`
	LayerUS   map[string]float64 `json:"layer_self_us_mean"`
	Overhead  float64            `json:"web_overhead_us_mean"`
}

type summary struct {
	Workload         string               `json:"workload"`
	Seed             int64                `json:"seed"`
	Env              map[string]any       `json:"environment"`
	Requests         int                  `json:"requests"`
	Passes           int                  `json:"passes"`
	SplitPct         map[string]float64   `json:"split_pct_of_handler_time"`
	Kinds            map[string]kindStats `json:"kinds"`
	TracedReplayS    float64              `json:"traced_replay_s"`
	UntracedReplayS  float64              `json:"untraced_replay_s"`
	Spans            int                  `json:"spans"`
	ExportedSpans    int                  `json:"exported_spans"`
	PerLayer         map[string]metric    `json:"per_layer"`
	NoisyPoolSpeedup *float64             `json:"noisy_pool_speedup,omitempty"`
}

func traced(gen *generator, d time.Duration, outDir string) (result, error) {
	cfg := serverConfig()
	o := newOracle(cfg)
	srv, h, _, err := setup(gen, o, 1)
	if err != nil {
		return result{}, err
	}
	cl := newClient(h, o)
	cl.logOn = true
	_, err = closedLoop(gen, cl, d/3)
	srv.Close()
	if err != nil {
		return result{}, err
	}
	log := cl.log
	cl.log = nil
	runtime.GC()

	on := newReplayer(cfg, true)
	tracedWall := on.run(log)
	runtime.GC()
	off := newReplayer(cfg, false)
	untracedWall := off.run(log)
	for _, r := range []*replayer{on, off} {
		if r.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: replay:", r.firstErr)
		}
	}

	self := selfTimes(on.t.spans)
	sum := summarize(gen, log, on, off, self, tracedWall, untracedWall)
	sum.Env = environment(cfg)
	if gen.workload == "batch" {
		sum.NoisyPoolSpeedup = noisySpeedup()
	}
	if err := writeOutputs(outDir, gen, sum, on.t.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests, split %v\n", gen.workload, gen.seed, len(log), sum.SplitPct)

	failed := cl.failed + on.mismatches
	return result{Correct: failed == 0, Attempted: len(log), Failed: failed, Metrics: sum.PerLayer}, nil
}

// selfTimes returns each span's duration minus the part of it covered
// by its child spans, in nanoseconds.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		covered, reach := int64(0), s.start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		for _, k := range kids {
			lo, hi := max(spans[k].start, reach), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

func summarize(gen *generator, log []request, on, off *replayer, self []int64, tracedWall, untracedWall time.Duration) summary {
	spans := on.t.spans
	// Layer self time and span count by name, and per request kind.
	byName := map[string]int64{}
	countByName := map[string]int{}
	kindLayers := map[string]map[string]int64{}
	for i, s := range spans {
		if s.parent < 0 {
			continue
		}
		byName[s.name] += self[i]
		countByName[s.name]++
		kind := log[s.req-1].Kind
		if kindLayers[kind] == nil {
			kindLayers[kind] = map[string]int64{}
		}
		kindLayers[kind][s.name] += self[i]
	}
	passes := map[int]bool{}
	var handlerNS, layerNS float64
	kindHandler := map[string]float64{}
	kindN := map[string]int{}
	for _, r := range log {
		passes[r.Pass] = true
		handlerNS += r.Micros * 1e3
		kindHandler[r.Kind] += r.Micros * 1e3
		kindN[r.Kind]++
	}
	group := map[string]float64{}
	for name, ns := range byName {
		layerNS += float64(ns)
		group[layerGroups[name]] += float64(ns)
	}
	split := map[string]float64{"web_overhead": 100 * (handlerNS - layerNS) / handlerNS}
	for g, ns := range group {
		split[g] = 100 * ns / handlerNS
	}
	kinds := map[string]kindStats{}
	for kind, n := range kindN {
		ks := kindStats{N: n, HandlerUS: kindHandler[kind] / float64(n) / 1e3, LayerUS: map[string]float64{}}
		var sum float64
		for name, ns := range kindLayers[kind] {
			ks.LayerUS[name] = float64(ns) / float64(n) / 1e3
			sum += float64(ns)
		}
		ks.Overhead = (kindHandler[kind] - sum) / float64(n) / 1e3
		kinds[kind] = ks
	}

	meanUS := func(name string) float64 {
		if countByName[name] == 0 {
			return 0
		}
		return float64(byName[name]) / float64(countByName[name]) / 1e3
	}
	ratio := func(hits, lookups uint64) float64 {
		if lookups == 0 {
			return 0
		}
		return float64(hits) / float64(lookups)
	}
	np := float64(len(passes))
	st := on.stats
	pl := map[string]metric{
		"qasm.parse_us":            {meanUS("qasm.parse"), "us"},
		"sim.step_us":              {meanUS("sim.step"), "us"},
		"sim.back_us":              {meanUS("sim.back"), "us"},
		"sim.noisy_traj_per_s":     {0, "1/s"},
		"dd.apply_ct_hit_ratio":    {ratio(st.ApplyCTHits, st.ApplyCTLookups), "ratio"},
		"dd.apply_ct_lookups":      {float64(st.ApplyCTLookups) / np, "count"},
		"dd.gc_runs":               {float64(st.GCRuns) / np, "count"},
		"dd.nodes_recycled":        {float64(st.NodesRecycledV+st.NodesRecycledM) / np, "count"},
		"dd.peak_live_nodes":       {float64(on.peakLive), "count"},
		"dd.applym_ct_hit_ratio":   {ratio(st.ApplyMCTHits, st.ApplyMCTLookups), "ratio"},
		"dd.applym_ct_lookups":     {float64(st.ApplyMCTLookups) / np, "count"},
		"dd.applym_identity_skips": {float64(st.ApplyMIdentitySkips) / np, "count"},
		"dd.mm_generic_ops":        {float64(st.MultMMOps) / np, "count"},
		"dd.frame_stats_us":        {meanUS("dd.frame_stats"), "us"},
		"verify.apply_us":          {0, "us"},
		"verify.functionality_ms":  {meanUS("verify.functionality") / 1e3, "ms"},
		"vis.graph_us":             {meanUS("vis.graph"), "us"},
		"vis.svg_us":               {meanUS("vis.svg"), "us"},
		"vis.svg_kb":               {0, "kB"},
		"vis.alloc_kb_per_frame":   {0, "kB"},
		"web.encode_us":            {meanUS("web.encode"), "us"},
		"web.overhead_us":          {(handlerNS - layerNS) / float64(len(log)) / 1e3, "us"},
		"trace.overhead_pct":       {100 * (tracedWall.Seconds() - untracedWall.Seconds()) / untracedWall.Seconds(), "%"},
	}
	if ns := byName["sim.noisy"]; ns > 0 {
		pl["sim.noisy_traj_per_s"] = metric{float64(on.trajectories) / (float64(ns) / 1e9), "1/s"}
	}
	if on.gates > 0 {
		pl["verify.apply_us"] = metric{float64(byName["verify.apply"]+byName["verify.identity"]) / float64(on.gates) / 1e3, "us"}
	}
	if on.frames > 0 {
		pl["vis.svg_kb"] = metric{float64(on.svgBytes) / float64(on.frames) / 1024, "kB"}
		pl["vis.alloc_kb_per_frame"] = metric{float64(off.frameAlloc) / float64(off.frames) / 1024, "kB"}
	}
	exported := len(spans)
	if exported > maxExportSpans {
		exported = maxExportSpans
	}
	return summary{
		Workload: gen.workload, Seed: gen.seed, Requests: len(log), Passes: len(passes),
		SplitPct: split, Kinds: kinds, PerLayer: pl,
		TracedReplayS: tracedWall.Seconds(), UntracedReplayS: untracedWall.Seconds(),
		Spans: len(spans), ExportedSpans: exported,
	}
}

// environment records what the numbers were measured on.
func environment(cfg web.Config) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go":                 runtime.Version(),
		"cpu":                cpu,
		"noisy_pool_workers": sim.PoolWidth(cfg.NoisyWorkers, math.MaxInt32),
	}
}

// noisySpeedup times the GHZ(14) ensemble on one worker and on the
// default pool width. It returns nil on a single core, where a
// parallel speedup is not a claim.
func noisySpeedup() *float64 {
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		return nil
	}
	circ := algorithms.GHZ(14)
	model := sim.NoiseModel{Depolarizing: 0.02}
	timeIt := func(workers int) float64 {
		var ts []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, err := sim.RunNoisy(circ, model, 400, 1, sim.WithWorkers(workers)); err != nil {
				return 0
			}
			ts = append(ts, time.Since(t0).Seconds())
		}
		return median(ts)
	}
	seq, par := timeIt(1), timeIt(0)
	if par <= 0 {
		return nil
	}
	s := seq / par
	return &s
}

func writeOutputs(dir string, gen *generator, sum summary, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", gen.workload, gen.seed))
	out := make([]trace.Span, 0, sum.ExportedSpans)
	for i := 0; i < sum.ExportedSpans; i++ {
		s := spans[i]
		out = append(out, trace.MakeSpan(uint64(i+1), uint64(s.parent+1), s.name, s.start, s.end-s.start,
			trace.Attr{Key: "request", Value: int64(s.req)}))
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	werr := trace.WriteChromeTrace(f, trace.SessionTrace{Name: "perfbench " + gen.workload, PID: 1, Spans: out})
	if err := f.Close(); werr == nil {
		werr = err
	}
	if werr != nil {
		return fmt.Errorf("write trace: %w", werr)
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".summary.json", append(b, '\n'), 0o644)
}
