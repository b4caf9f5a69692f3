package web

// Request admission and resource limits.
//
// The tool is installation-free: anyone can point a browser (or curl)
// at it, so every input is untrusted. Limits are enforced in layers:
// the body size cap rejects oversized payloads before parsing (413),
// the admission limits reject circuits that are too wide or too long
// before any diagram is built (422), and the dd node budget bounds
// diagram growth during stepping (reported as a frame caption, see
// server.go). All error responses share one JSON envelope.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"quantumdd/internal/obs"
	"quantumdd/internal/qc"
)

// Config bounds the server's resource usage. Zero values disable the
// corresponding limit; DefaultConfig returns production defaults.
type Config struct {
	// Seed makes sampled measurement outcomes reproducible.
	Seed int64
	// MaxQubits rejects parsed circuits wider than this (422).
	MaxQubits int
	// MaxOps rejects parsed circuits with more operations than this (422).
	MaxOps int
	// MaxNodes caps each session's decision-diagram unique tables
	// (dd.Pkg.SetMaxNodes); exceeding it surfaces as a "diagram too
	// large" frame caption instead of unbounded memory growth.
	MaxNodes int
	// MaxBodyBytes caps request bodies via http.MaxBytesReader (413).
	MaxBodyBytes int64
	// SessionTTL evicts sessions idle longer than this; subsequent
	// requests to them answer 410 Gone.
	SessionTTL time.Duration
	// MaxSessions is an LRU cap on live sessions per kind (simulation
	// and verification each); the least recently used session is
	// evicted when a new one would exceed it.
	MaxSessions int
	// RequestTimeout bounds each request, including break/end
	// fast-forward loops, via a context deadline.
	RequestTimeout time.Duration
	// NoisyWorkers is the trajectory pool width for POST /api/noisy:
	// Monte-Carlo ensembles fan out over this many independent DD
	// engine replicas. 0 uses runtime.GOMAXPROCS; 1 runs
	// sequentially. Results are bit-identical for every setting.
	NoisyWorkers int
	// SpillDir, when non-empty, enables durable sessions: TTL/LRU
	// eviction spills the session as a checksummed snapshot into this
	// directory, and the next request for the id transparently
	// restores it (see internal/snapshot). Empty disables spilling —
	// eviction destroys the session as before.
	SpillDir string
	// SpillMaxBytes caps the total size of the spill directory; the
	// oldest snapshots are deleted first when the cap is exceeded.
	// 0 means unbounded.
	SpillMaxBytes int64
	// SampleInterval is the live telemetry tick: every interval the
	// in-process time-series store sweeps all metric families, the
	// watchdog evaluates its rules, and /debug/live broadcasts a frame.
	// 0 disables the whole pipeline (tsdb, watchdog, live stream, and
	// the SLO burn-rate gate of /readyz).
	SampleInterval time.Duration
	// LiveStream serves GET /debug/live (SSE) on the public mux when
	// telemetry is enabled. Disable to keep the stream off a public
	// deployment while retaining the tsdb and health endpoints.
	LiveStream bool
	// Logger receives request, panic, and eviction logs. Nil discards.
	// Every component (middleware, handlers, session reaper) logs
	// through this one injected logger, decorated with request-ID and
	// session-ID attributes, so one trace ID threads a request's whole
	// story together.
	Logger *slog.Logger
	// Metrics receives the server's metric series (HTTP traffic,
	// sessions, DD engine). Nil uses obs.Default, which is what
	// production wants: one registry per process, scraped once.
	Metrics *obs.Registry
}

// logger resolves the injected logger, discarding when none is set,
// so every component shares exactly one logging pipeline.
func (c Config) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// registry resolves the metrics registry analogously.
func (c Config) registry() *obs.Registry {
	if c.Metrics != nil {
		return c.Metrics
	}
	return obs.Default
}

// DefaultConfig returns the limits ddvis ships with.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		MaxQubits:      24,
		MaxOps:         4096,
		MaxNodes:       250000,
		MaxBodyBytes:   1 << 20,
		SessionTTL:     30 * time.Minute,
		MaxSessions:    256,
		RequestTimeout: 15 * time.Second,
		SampleInterval: 5 * time.Second,
		LiveStream:     true,
	}
}

// apiError is the JSON error envelope of every non-2xx API response.
type apiError struct {
	Error     string `json:"error"`
	Code      string `json:"code,omitempty"`
	RequestID string `json:"requestId,omitempty"`
}

// Error codes of the envelope.
const (
	codeBadRequest        = "bad_request"
	codeBodyTooLarge      = "body_too_large"
	codeCircuitTooLarge   = "circuit_too_large"
	codeResourceExhausted = "resource_exhausted"
	codeSessionUnknown    = "session_unknown"
	codeSessionGone       = "session_gone"
	codeInternal          = "internal"
)

// admit rejects circuits exceeding the configured admission limits.
func (s *Server) admit(c *qc.Circuit) error {
	if s.cfg.MaxQubits > 0 && c.NQubits > s.cfg.MaxQubits {
		return fmt.Errorf("web: circuit has %d qubits, the server accepts at most %d", c.NQubits, s.cfg.MaxQubits)
	}
	if s.cfg.MaxOps > 0 && len(c.Ops) > s.cfg.MaxOps {
		return fmt.Errorf("web: circuit has %d operations, the server accepts at most %d", len(c.Ops), s.cfg.MaxOps)
	}
	return nil
}

// decodeJSON decodes the request body into v and writes the error
// response itself on failure (413 for oversized bodies, 400
// otherwise). Callers stop handling when it returns an error.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) error {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return nil
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.writeErr(w, r, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
			fmt.Errorf("web: request body exceeds the %d-byte limit", mbe.Limit))
		return err
	}
	s.writeErr(w, r, http.StatusBadRequest, codeBadRequest, err)
	return err
}

// sessionErr maps registry lookup failures onto 404/410 responses.
func (s *Server) sessionErr(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, errSessionGone) {
		s.writeErr(w, r, http.StatusGone, codeSessionGone,
			fmt.Errorf("web: session %q expired or was evicted; create a new one", r.PathValue("id")))
		return
	}
	s.writeErr(w, r, http.StatusNotFound, codeSessionUnknown,
		fmt.Errorf("web: unknown session %q", r.PathValue("id")))
}
