// Command perfbench is the repository benchmark: it drives the ddvis
// web tool's real request handler in process through seeded user
// workloads and reports end-to-end request metrics (--trace 0) or a
// per-layer breakdown from a traced replay of the same walks
// (--trace 1).
//
//	bash perfbench/run.sh --workload tour --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check
// makes the run exit with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"quantumdd/internal/obs"
	"quantumdd/internal/web"
)

// setupRounds is how many times a run builds and warms a server; the
// median of their times is setup_s.
const setupRounds = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "tour", "workload: tour, batch or verify")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measurement time in seconds")
	traceOn := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	outDir := flag.String("out-dir", ".bench_build/perfbench-out", "where the traced run writes its trace and summary")
	flag.Parse()

	gen, err := newGenerator(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	measure := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traceOn == 1 {
		res, err = traced(gen, measure, *outDir)
	} else {
		res, err = endToEnd(gen, measure)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// serverConfig is the shipped configuration with a private metrics
// registry and a discarded log, so runs neither share series nor
// spend time on log output.
func serverConfig() web.Config {
	cfg := web.DefaultConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	return cfg
}

// setup builds a server `rounds` times, each warmed by pass 0 of the
// workload, and returns the last one, its handler and the median
// set-up time.
func setup(gen *generator, o *oracle, rounds int) (*web.Server, http.Handler, float64, error) {
	walks, err := gen.pass(0)
	if err != nil {
		return nil, nil, 0, err
	}
	var srv *web.Server
	var cl *client
	times := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		if srv != nil {
			srv.Close()
		}
		runtime.GC()
		t0 := time.Now()
		srv = web.NewServerWithConfig(serverConfig())
		h := srv.Handler()
		build := time.Since(t0)
		cl = newClient(h, o)
		warm := cl.runPass(0, walks)
		times = append(times, (build + warm).Seconds())
		if cl.failed > 0 {
			srv.Close()
			return nil, nil, 0, fmt.Errorf("warm-up pass failed %d checks", cl.failed)
		}
	}
	return srv, cl.h, median(times), nil
}

// endToEnd runs the measured closed loop for d and reports the
// end-to-end metrics.
func endToEnd(gen *generator, d time.Duration) (result, error) {
	o := newOracle(serverConfig())
	srv, h, setupS, err := setup(gen, o, setupRounds)
	if err != nil {
		return result{}, err
	}
	defer srv.Close()
	res, err := closedLoop(gen, newClient(h, o), d)
	if err != nil {
		return result{}, err
	}
	// Only the server and the sessions it holds are still reachable.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Metrics["retained_heap_mb"] = metric{float64(ms.HeapInuse) / (1 << 20), "MB"}
	res.Metrics["setup_s"] = metric{setupS, "s"}
	return res, nil
}

// closedLoop runs passes for d and reports the request metrics.
func closedLoop(gen *generator, cl *client, d time.Duration) (result, error) {
	var busy time.Duration
	start := time.Now()
	for pass := 1; time.Since(start) < d; pass++ {
		walks, err := gen.pass(pass)
		if err != nil {
			return result{}, err
		}
		busy += cl.runPass(pass, walks)
	}
	n := float64(cl.attempted)
	return result{
		Correct:   cl.failed == 0,
		Attempted: cl.attempted,
		Failed:    cl.failed,
		Metrics: map[string]metric{
			"request_p50_ms":       {quantile(cl.latMS, 0.50), "ms"},
			"request_p95_ms":       {quantile(cl.latMS, 0.95), "ms"},
			"requests_per_s":       {n / busy.Seconds(), "1/s"},
			"response_kb_mean":     {float64(cl.respBytes) / 1024 / n, "kB"},
			"alloc_kb_per_request": {float64(cl.allocB) / 1024 / n, "kB"},
		},
	}, nil
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
