package web

// Request hardening and observability middleware: request IDs, access
// logging, panic recovery, body size caps, per-request deadlines, and
// the traffic metrics (request counts by status class, latency
// histogram, in-flight gauge). One panicking or runaway request must
// cost its caller an error response, never the process or other
// users' sessions.

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"
)

// ctxKey keys the one context value the middleware sets.
type ctxKey struct{}

// reqInfo is that value: the request id and the request-scoped
// logger, which reqLogger builds on first use. Handlers log from the
// request's own goroutine, so the lazy field needs no lock.
type reqInfo struct {
	id     string
	logger *slog.Logger
}

// requestID returns the id the middleware assigned to this request
// ("" outside the middleware chain, e.g. in direct handler tests).
func requestID(r *http.Request) string {
	if ri, ok := r.Context().Value(ctxKey{}).(*reqInfo); ok {
		return ri.id
	}
	return ""
}

// reqLogger returns the request-scoped logger: the server's injected
// logger decorated with the request-ID attribute. Handlers log
// through this so every line of a request's story carries the same
// id. Outside the middleware chain it falls back to the bare logger.
func (s *Server) reqLogger(r *http.Request) *slog.Logger {
	ri, ok := r.Context().Value(ctxKey{}).(*reqInfo)
	if !ok {
		return s.logger
	}
	if ri.logger == nil {
		ri.logger = s.logger.With("requestId", ri.id)
	}
	return ri.logger
}

// statusWriter records what was sent so the recovery, logging and
// metrics layers know the response status and whether headers are
// still open.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so the SSE live stream can push
// frames through the middleware chain. Embedding alone would hide the
// underlying Flusher behind the statusWriter type.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withMiddleware wraps next with the hardening chain: request-ID
// tagging, body size cap, per-request deadline, panic recovery,
// access logging, and traffic metrics. It sits on every request, so it
// stays cheap: one context value, no logger clone unless a handler
// logs, and an access-log line that is only built when its level is
// enabled.
func (s *Server) withMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ri := &reqInfo{id: "req-" + strconv.FormatInt(s.nextReqID.Add(1), 10)}
		// The SSE live stream is deliberately long-lived: exempt it from
		// the per-request deadline (which would cut every stream after
		// RequestTimeout) and from the latency histogram (where one
		// hour-long stream would poison the p99 the SLO gate reads).
		streaming := r.URL.Path == "/debug/live"
		ctx := context.WithValue(r.Context(), ctxKey{}, ri)
		if s.cfg.RequestTimeout > 0 && !streaming {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		r = r.WithContext(ctx)
		w.Header().Set("X-Request-ID", ri.id)
		if r.Body != nil && s.cfg.MaxBodyBytes > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		s.metrics.inFlight.Inc()
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.panics.Inc()
				s.reqLogger(r).Error("panic recovered",
					"method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				if !sw.wrote {
					s.writeErr(sw, r, http.StatusInternalServerError, codeInternal,
						fmt.Errorf("web: internal server error"))
				}
			}
			status := sw.status
			if !sw.wrote {
				status = http.StatusOK
			}
			elapsed := time.Since(start)
			s.metrics.inFlight.Dec()
			s.metrics.observeStatus(status)
			if !streaming {
				s.metrics.reqDuration.ObserveSeconds(int64(elapsed))
			}
			// The request id leads, as it would on a reqLogger line.
			if ctx := r.Context(); s.logger.Enabled(ctx, slog.LevelInfo) {
				s.logger.LogAttrs(ctx, slog.LevelInfo, "request",
					slog.String("requestId", ri.id),
					slog.String("method", r.Method), slog.String("path", r.URL.Path),
					slog.Int("status", status), slog.Duration("duration", elapsed))
			}
		}()
		next.ServeHTTP(sw, r)
	})
}
