package obs

// HTTP exposure: the public /metrics handler and the opt-in admin mux
// bundling profiling endpoints. Profiling handlers (pprof, expvar)
// never ride on the public port — cmd/ddvis serves AdminMuxWith on a
// separate -admin-addr listener, typically bound to localhost or a
// cluster-internal interface.

import (
	"expvar"
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry in Prometheus text exposition format.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// AdminMuxWith returns the admin endpoint set:
//
//	/healthz        liveness probe (200 "ok")
//	/metrics        the given scrape handler
//	/debug/vars     expvar JSON (Go runtime memstats, cmdline)
//	/debug/pprof/…  CPU/heap/goroutine/block profiles and traces
//
// cmd/ddvis passes the web server's scrape handler, which refreshes
// session gauges first, instead of a bare registry dump.
func AdminMuxWith(metrics http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.Handle("GET /metrics", metrics)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
