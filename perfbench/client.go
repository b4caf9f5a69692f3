package main

// The closed-loop client: one goroutine drives the real web.Server
// handler in process, one request at a time, exactly as a user of the
// tool waits for each frame before the next click. Each request body
// is built before the clock starts; only the ServeHTTP call is timed,
// and heap allocation is read from runtime/metrics around it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"time"

	"quantumdd/internal/web"
)

// Request kinds, one per API route the workloads use.
const (
	kSimCreate    = "sim.create"
	kSimStep      = "sim.step"
	kSimChoose    = "sim.choose"
	kSimGet       = "sim.get"
	kSimExport    = "sim.export"
	kNoisy        = "noisy"
	kFunc         = "functionality"
	kVerifyCreate = "verify.create"
	kVerifyStep   = "verify.step"
)

// request is one API call as sent, kept in the log the traced replay
// re-executes layer by layer.
type request struct {
	Kind    string
	Method  string
	Path    string
	Body    []byte
	Walk    *walk
	Pass    int
	Session string // server session id the request addresses
	Action  string // step action, or export format
	Side    string // verification side
	Outcome int    // dialog answer

	Micros float64 // handler time
	Nodes  int     // node count of the response frame (-1 without one)
}

// response decodes the fields of every API answer the client acts on.
type response struct {
	ID    string `json:"id"`
	Frame struct {
		SVG   string    `json:"svg"`
		Nodes int       `json:"nodes"`
		Probs []float64 `json:"probs"`
	} `json:"frame"`
	Pending  *web.PendingChoice `json:"pending"`
	AtEnd    bool               `json:"atEnd"`
	AtStart  bool               `json:"atStart"`
	Error    string             `json:"error"`
	Identity string             `json:"identity"`
	Applied  string             `json:"applied"`
	LeftPos  int                `json:"leftPos"`
	RightPos int                `json:"rightPos"`
	Counts   map[string]int     `json:"counts"`
}

type client struct {
	h      http.Handler
	oracle *oracle
	pass   int
	log    []request // filled when logging is on
	logOn  bool

	attempted int
	failed    int
	latMS     []float64
	respBytes int64
	allocB    uint64
	allocs    allocMeter
}

func newClient(h http.Handler, o *oracle) *client {
	return &client{h: h, oracle: o, allocs: newAllocMeter()}
}

// allocMeter reads the process's cumulative heap allocation without
// the stop-the-world pause of runtime.ReadMemStats.
type allocMeter []metrics.Sample

func newAllocMeter() allocMeter { return allocMeter{{Name: "/gc/heap/allocs:bytes"}} }

func (m allocMeter) read() uint64 {
	metrics.Read(m)
	return m[0].Value.Uint64()
}

// fail counts a failed operation; the first few causes go to stderr.
func (c *client) fail(w *walk, format string, args ...any) {
	c.failed++
	if c.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %s\n", w.Name, fmt.Sprintf(format, args...))
	}
}

// do serves one request and decodes a JSON answer into out (nil for
// the raw export bodies). It reports whether the request succeeded.
func (c *client) do(r request, out *response) bool {
	hr := httptest.NewRequest(r.Method, r.Path, bytes.NewReader(r.Body))
	rec := httptest.NewRecorder()
	a0 := c.allocs.read()
	t0 := time.Now()
	c.h.ServeHTTP(rec, hr)
	el := time.Since(t0)
	c.allocB += c.allocs.read() - a0

	c.attempted++
	c.latMS = append(c.latMS, float64(el.Nanoseconds())/1e6)
	c.respBytes += int64(rec.Body.Len())
	r.Micros = float64(el.Nanoseconds()) / 1e3
	r.Nodes = -1
	ok := rec.Code == http.StatusOK
	if !ok {
		c.fail(r.Walk, "%s %s: status %d: %s", r.Method, r.Path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	} else if out != nil {
		*out = response{}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			c.fail(r.Walk, "%s %s: decode: %v", r.Method, r.Path, err)
			ok = false
		} else if out.Error != "" {
			c.fail(r.Walk, "%s %s: %s", r.Method, r.Path, out.Error)
			ok = false
		}
		if out.Frame.SVG != "" {
			r.Nodes = out.Frame.Nodes
		}
		if r.Session == "" {
			r.Session = out.ID // a create request: later requests address this id
		}
	}
	if c.logOn {
		c.log = append(c.log, r)
	}
	return ok
}

func (c *client) post(r request, body any, out *response) bool {
	buf, err := json.Marshal(body)
	if err != nil {
		c.fail(r.Walk, "encode body: %v", err)
		return false
	}
	r.Method, r.Body, r.Pass = http.MethodPost, buf, c.pass
	return c.do(r, out)
}

func (c *client) get(r request, out *response) bool {
	r.Method, r.Pass = http.MethodGet, c.pass
	return c.do(r, out)
}

// runPass runs every walk of a pass and returns the closed-loop wall
// time, excluding the oracle's own work.
func (c *client) runPass(pass int, walks []walk) time.Duration {
	c.pass = pass
	spent := c.oracle.spent
	t0 := time.Now()
	for i := range walks {
		c.runWalk(&walks[i])
	}
	return time.Since(t0) - (c.oracle.spent - spent)
}

func (c *client) runWalk(w *walk) {
	switch w.Kind {
	case walkTour:
		c.tour(w)
	case walkSim:
		c.simRun(w)
	case walkNoisy:
		var res response
		body := map[string]any{"code": w.Code, "depolarizing": w.Depolarizing, "bitFlip": w.BitFlip, "trajectories": w.Trajectories}
		if c.post(request{Kind: kNoisy, Path: "/api/noisy", Walk: w}, body, &res) {
			if err := c.oracle.checkCounts(w, res.Counts); err != nil {
				c.fail(w, "noisy counts: %v", err)
			}
		}
	case walkFunc:
		var res response
		body := map[string]any{"code": w.Code, "inverse": w.Inverse}
		if c.post(request{Kind: kFunc, Path: "/api/functionality" + w.Query, Walk: w}, body, &res) {
			if err := c.oracle.checkNodes(w, res.Frame.Nodes); err != nil {
				c.fail(w, "%v", err)
			}
		}
	case walkVerify:
		c.verifyRun(w)
	}
}

func (c *client) simCreate(w *walk) (string, bool) {
	var res response
	if !c.post(request{Kind: kSimCreate, Path: "/api/simulation" + w.Query, Walk: w}, map[string]string{"code": w.Code}, &res) {
		return "", false
	}
	return res.ID, true
}

// step sends one step action and answers a measurement/reset dialog
// with the walk's seeded outcome, so the returned response is always
// past the dialog. svgs collects every frame shown.
func (c *client) step(w *walk, id, action string, svgs *[]string) (response, bool) {
	var res response
	if !c.post(request{Kind: kSimStep, Path: "/api/simulation/" + id + "/step" + w.Query, Walk: w, Session: id, Action: action},
		map[string]string{"action": action}, &res) {
		return res, false
	}
	if svgs != nil {
		*svgs = append(*svgs, res.Frame.SVG)
	}
	if res.Pending == nil {
		return res, true
	}
	out := w.outcome(res.Pending.OpIndex)
	if !c.post(request{Kind: kSimChoose, Path: "/api/simulation/" + id + "/choose" + w.Query, Walk: w, Session: id, Outcome: out},
		map[string]int{"outcome": out}, &res) {
		return res, false
	}
	if svgs != nil {
		*svgs = append(*svgs, res.Frame.SVG)
	}
	return res, true
}

// forwardToEnd clicks "forward" until the end of the circuit and
// returns the frames shown and the last answer.
func (c *client) forwardToEnd(w *walk, id string, nops int) ([]string, response, bool) {
	var svgs []string
	for i := 0; i <= nops; i++ {
		res, ok := c.step(w, id, "forward", &svgs)
		if !ok {
			return svgs, res, false
		}
		if res.AtEnd {
			return svgs, res, true
		}
	}
	c.fail(w, "forward did not reach the end after %d steps", nops+1)
	return svgs, response{}, false
}

// tour is the paper's core interaction on one example: step to the
// end through every dialog, back to the start, forward again with the
// same answers, then reload and export.
func (c *client) tour(w *walk) {
	id, ok := c.simCreate(w)
	if !ok {
		return
	}
	first, last, ok := c.forwardToEnd(w, id, w.Ops)
	if !ok {
		return
	}
	if err := c.oracle.checkProbs(w.Code, last.Frame.Probs); err != nil {
		c.fail(w, "end frame: %v", err)
	}
	for i := 0; ; i++ {
		res, ok := c.step(w, id, "backward", nil)
		if !ok {
			return
		}
		if res.AtStart {
			break
		}
		if i > w.Ops {
			c.fail(w, "backward did not reach the start")
			return
		}
	}
	again, _, ok := c.forwardToEnd(w, id, w.Ops)
	if !ok {
		return
	}
	if len(again) != len(first) {
		c.fail(w, "second forward pass showed %d frames, first %d", len(again), len(first))
	} else {
		for i := range first {
			if again[i] != first[i] {
				c.fail(w, "revisited frame %d renders differently", i)
				break
			}
		}
	}
	c.get(request{Kind: kSimGet, Path: "/api/simulation/" + id + w.Query, Walk: w, Session: id}, &response{})
	for _, format := range []string{"svg", "dot"} {
		c.get(request{Kind: kSimExport, Path: "/api/simulation/" + id + "/export" + w.Query + "&format=" + format,
			Walk: w, Session: id, Action: format}, nil)
	}
}

// simRun creates a session and fast-forwards it to the end.
func (c *client) simRun(w *walk) {
	id, ok := c.simCreate(w)
	if !ok {
		return
	}
	for i := 0; i <= w.Ops; i++ {
		res, ok := c.step(w, id, w.Action, nil)
		if !ok {
			return
		}
		if res.AtEnd {
			if err := c.oracle.checkProbs(w.Code, res.Frame.Probs); err != nil {
				c.fail(w, "end frame: %v", err)
			}
			return
		}
	}
	c.fail(w, "%s did not reach the end", w.Action)
}

// verifyRun drives one verification session to the end of both
// circuits, with seeded undo/redo, and checks the final verdict.
func (c *client) verifyRun(w *walk) {
	nl, nr := w.Ops, w.RightOps
	var res response
	if !c.post(request{Kind: kVerifyCreate, Path: "/api/verification" + w.Query, Walk: w},
		map[string]string{"left": w.Code, "right": w.Right}, &res) {
		return
	}
	id := res.ID
	undo := rand.New(rand.NewSource(w.UndoSeed))
	send := func(side, action string) bool {
		return c.post(request{Kind: kVerifyStep, Path: "/api/verification/" + id + "/step" + w.Query, Walk: w,
			Session: id, Side: side, Action: action}, map[string]string{"side": side, "action": action}, &res)
	}
	// act applies one step and, at seeded points after a step that
	// applied gates, undoes its last gate and redoes the step.
	act := func(side, action string) bool {
		if !send(side, action) {
			return false
		}
		if res.Applied != "" && res.Applied != "0 gate(s)" && undo.Intn(6) == 0 {
			return send(side, "backward") && send(side, action)
		}
		return true
	}
	leftAction := "barrier"
	if w.Drive == driveEx12 {
		leftAction = "forward"
	}
	for i := 0; res.LeftPos < nl || res.RightPos < nr; i++ {
		if i > nl+nr {
			c.fail(w, "verification did not reach the end (left %d/%d, right %d/%d)", res.LeftPos, nl, res.RightPos, nr)
			return
		}
		if res.LeftPos < nl && !act("left", leftAction) {
			return
		}
		if res.RightPos < nr && !act("right", "barrier") {
			return
		}
	}
	if err := c.oracle.checkVerdict(w, res.Identity); err != nil {
		c.fail(w, "%v", err)
	} else if res.Identity != w.Expect {
		c.fail(w, "verdict %q, the pair was built to reach %q", res.Identity, w.Expect)
	}
}
