package web

// GET /debug/live — the SSE telemetry stream.
//
// Each connected client gets a buffered channel of pre-marshalled
// frames; the telemetry tick broadcasts one frame to every client with
// a non-blocking send. A client that cannot keep up — its buffer is
// full because the peer stopped reading — is evicted on the spot: its
// channel is closed, the handler sends a final "evicted" event, and
// live_stream_clients_evicted_total counts it. A slow dashboard must
// never exert backpressure on the sampling loop or pile up unbounded
// frame queues.
//
// The stream is exempt from the per-request deadline and from the
// request-latency histogram (see middleware.go): a deliberately
// long-lived response would otherwise be killed after
// Config.RequestTimeout and would poison the p99 the SLO gate reads.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"quantumdd/internal/obs"
)

var (
	errLiveDisabled = errors.New("web: live telemetry stream disabled (no sample interval configured)")
	errLiveNoFlush  = errors.New("web: response writer does not support streaming")
	errLiveShutdown = errors.New("web: server shutting down")
)

// liveClientBuffer is each subscriber's frame buffer. At the default
// 5s interval this forgives ~40s of stalled reads before eviction.
const liveClientBuffer = 8

// liveHub fans telemetry frames out to the connected SSE clients.
type liveHub struct {
	clientsGauge *obs.Gauge
	evicted      *obs.Counter
	frames       *obs.Counter

	mu      sync.Mutex
	clients map[chan []byte]struct{}
	closed  bool
}

func newLiveHub(m *serverMetrics) *liveHub {
	return &liveHub{
		clientsGauge: m.liveClients,
		evicted:      m.liveEvicted,
		frames:       m.liveFrames,
		clients:      make(map[chan []byte]struct{}),
	}
}

// subscribe registers a client. The second return is false when the
// hub already shut down.
func (h *liveHub) subscribe() (chan []byte, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, false
	}
	ch := make(chan []byte, liveClientBuffer)
	h.clients[ch] = struct{}{}
	h.clientsGauge.Set(float64(len(h.clients)))
	return ch, true
}

// unsubscribe removes a client; safe to call after the broadcast side
// already evicted (and closed) the channel.
func (h *liveHub) unsubscribe(ch chan []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.clients[ch]; ok {
		delete(h.clients, ch)
		close(ch)
	}
	h.clientsGauge.Set(float64(len(h.clients)))
}

// broadcast sends one frame to every client without blocking: a full
// buffer evicts its client.
func (h *liveHub) broadcast(frame []byte) {
	h.frames.Inc()
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch := range h.clients {
		select {
		case ch <- frame:
		default:
			delete(h.clients, ch)
			close(ch)
			h.evicted.Inc()
		}
	}
	h.clientsGauge.Set(float64(len(h.clients)))
}

// closeAll disconnects every client and refuses new subscriptions;
// called from Server.Close.
func (h *liveHub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for ch := range h.clients {
		delete(h.clients, ch)
		close(ch)
	}
	h.clientsGauge.Set(0)
}

// liveFrame is the JSON schema of one SSE frame. Additive changes
// only — dashboards bind to these keys.
type liveFrame struct {
	Seq      uint64         `json:"seq"`
	Time     string         `json:"time"` // RFC3339Nano
	Sessions liveSessions   `json:"sessions"`
	HTTP     liveHTTP       `json:"http"`
	Engine   liveEngine     `json:"engine"`
	Spill    liveSpill      `json:"spill"`
	Watchdog liveWatchdog   `json:"watchdog"`
	Top      []sessionUsage `json:"top"`
}

type liveSessions struct {
	Sim    int `json:"sim"`
	Verify int `json:"verify"`
}

type liveHTTP struct {
	InFlight    float64 `json:"inFlight"`
	RatePerSec  float64 `json:"ratePerSec"` // all classes, over the SLO window
	P99Seconds  float64 `json:"p99Seconds"`
	ErrorsTotal float64 `json:"errorsTotal"` // lifetime 5xx count
}

type liveEngine struct {
	LiveNodes    float64 `json:"liveNodes"`
	CTHitRatio   float64 `json:"ctHitRatio"`
	GCRuns       float64 `json:"gcRuns"`
	OpRatePerSec float64 `json:"opRatePerSec"` // dd ops across sessions, over the SLO window
}

type liveSpill struct {
	Bytes     float64 `json:"bytes"`
	Snapshots float64 `json:"snapshots"`
}

type liveWatchdog struct {
	Events  int    `json:"events"`
	Latest  string `json:"latest,omitempty"` // newest rule name
	Dropped uint64 `json:"dropped"`
}

// liveTopN bounds the per-frame session ranking.
const liveTopN = 5

// liveFrameBytes assembles and marshals one frame from the retained
// telemetry at now. usage is the tick's accounting snapshot (already
// sorted heaviest-first).
func (s *Server) liveFrameBytes(now time.Time, usage []sessionUsage) []byte {
	st := s.tele.store
	win := sloWindow
	f := liveFrame{
		Seq:  s.liveSeq.Add(1),
		Time: now.UTC().Format(time.RFC3339Nano),
		Sessions: liveSessions{
			Sim:    s.sims.reg.size(),
			Verify: s.verifies.reg.size(),
		},
		HTTP: liveHTTP{
			InFlight: st.LatestValue("http_requests_in_flight", "", 0),
		},
		Engine: liveEngine{
			LiveNodes:  st.LatestValue("dd_nodes_live", "", 0),
			CTHitRatio: st.LatestValue("dd_compute_table_hit_ratio", "", 0),
			GCRuns:     st.LatestValue("dd_gc_runs", "", 0),
		},
		Spill: liveSpill{
			Bytes:     st.LatestValue("spill_store_bytes", "", 0),
			Snapshots: st.LatestValue("spill_store_snapshots", "", 0),
		},
		Top: usage,
	}
	if len(f.Top) > liveTopN {
		f.Top = f.Top[:liveTopN]
	}
	if f.Top == nil {
		f.Top = []sessionUsage{}
	}
	for _, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
		if rate, ok := st.Rate("http_requests_total", `code="`+class+`"`, win, now); ok {
			f.HTTP.RatePerSec += rate
		}
	}
	f.HTTP.ErrorsTotal = st.LatestValue("http_requests_total", `code="5xx"`, 0)
	if p99, ok := st.Quantile("http_request_duration_seconds", "", 0.99, win, now); ok {
		f.HTTP.P99Seconds = p99
	}
	var opRate float64
	for _, u := range usage {
		if r, ok := st.Rate("session_dd_ops", fmt.Sprintf("id=%q", u.ID), win, now); ok {
			opRate += r
		}
	}
	f.Engine.OpRatePerSec = opRate
	evs := s.tele.dog.Events()
	f.Watchdog = liveWatchdog{Events: len(evs), Dropped: s.tele.dog.Dropped()}
	if len(evs) > 0 {
		f.Watchdog.Latest = evs[len(evs)-1].Rule
	}
	b, err := json.Marshal(f)
	if err != nil {
		// The frame is built from plain structs; a marshal failure is a
		// programming error surfaced as an empty frame, never a panic in
		// the sampling loop.
		return []byte(`{"error":"frame marshal failed"}`)
	}
	return b
}

// handleLive serves the SSE stream.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	if s.tele == nil {
		s.writeErr(w, r, http.StatusNotFound, codeBadRequest,
			errLiveDisabled)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeErr(w, r, http.StatusInternalServerError, codeInternal,
			errLiveNoFlush)
		return
	}
	ch, ok := s.tele.hub.subscribe()
	if !ok {
		s.writeErr(w, r, http.StatusServiceUnavailable, codeInternal,
			errLiveShutdown)
		return
	}
	defer s.tele.hub.unsubscribe(ch)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// An immediate snapshot frame so a client sees data before the
	// next tick; subsequent frames arrive from the broadcast loop.
	fmt.Fprintf(w, "data: %s\n\n", s.liveFrameBytes(time.Now(), s.sessionUsageSnapshot()))
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case frame, open := <-ch:
			if !open {
				// Evicted as a slow consumer (or the server shut down):
				// tell the client why before the connection closes.
				fmt.Fprint(w, "event: evicted\ndata: {\"reason\":\"slow consumer or shutdown\"}\n\n")
				fl.Flush()
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", frame)
			fl.Flush()
		}
	}
}
