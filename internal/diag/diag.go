package diag

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"voodoo/internal/metrics"
	"voodoo/internal/telemetry"
	"voodoo/internal/telemetry/slo"
)

// Health is the /healthz payload of a process with a lifecycle: its
// serving state plus the tables the storage layer quarantined at load
// time. State follows the daemon's life: "ready" (serving normally),
// "degraded" (serving, but some tables are quarantined after failing
// integrity checks), "draining" (shutting down; new queries are refused).
type Health struct {
	State         string             `json:"state"`
	ActiveQueries int                `json:"active_queries"`
	Quarantined   []QuarantinedTable `json:"quarantined,omitempty"`
	// Build identifies the binary answering the probe.
	Build metrics.BuildInfo `json:"build"`
	// SLO is the per-route error-budget state, present when the daemon
	// tracks objectives — a probe reads budget burn without scraping.
	SLO []slo.BudgetState `json:"slo,omitempty"`
}

// QuarantinedTable names one table withheld from serving and why.
type QuarantinedTable struct {
	Table string `json:"table"`
	Error string `json:"error"`
}

// NewMux builds the diagnostics mux:
//
//	/metrics         Prometheus text exposition of reg
//	/debug/pprof/*   the standard pprof handlers (profile, heap, trace, …)
//	/debug/vars      expvar (its "voodoo" map is a view of the execution counters on /metrics)
//	/healthz         liveness/readiness probe
//	/queries         JSON: in-flight queries (live progress) + slow-query summaries
//	/queries/slow    JSON: the slow ring with full traces
//	/queries/cancel  POST ?id=N — cancel an in-flight query
//	/debug/spans     JSON: ?query_id= one recent query's span tree; bare, the retained ids
//
// qr may be nil (one-shot tools expose metrics/pprof without a query
// registry); the /queries endpoints are mounted only when it is set, and
// /debug/spans only when it also retains recent queries.
//
// health may be nil: /healthz then answers a plain 200 "ok" (pure
// liveness, the right shape for one-shot tools). When set, /healthz
// reports the process's Health as JSON — 200 while ready or degraded
// (still serving), 503 while draining so load balancers eject the
// instance before shutdown completes.
func NewMux(reg *metrics.Registry, qr *QueryRegistry, health func() Health) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if health == nil {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
			return
		}
		h := health()
		code := http.StatusOK
		if h.State == "draining" {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})
	if qr != nil {
		mux.HandleFunc("GET /queries", qr.handleList)
		mux.HandleFunc("GET /queries/slow", qr.handleSlow)
		mux.HandleFunc("POST /queries/cancel", qr.handleCancel)
		if qr.recent != nil {
			mux.HandleFunc("GET /debug/spans", qr.handleSpans)
		}
	}
	return mux
}

// handleSpans serves one recent query's exportable span tree by query_id —
// rendered from its record here, on read — or, without the parameter, the
// ids still retained, most recent first.
func (r *QueryRegistry) handleSpans(w http.ResponseWriter, req *http.Request) {
	id := req.URL.Query().Get("query_id")
	if id == "" {
		ids := r.RecentIDs()
		writeJSON(w, http.StatusOK, map[string]any{"retained": len(ids), "query_ids": ids})
		return
	}
	q, ok := r.Lookup(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": fmt.Sprintf("no retained spans for query_id %q (the registry keeps the most recent queries only)", id),
		})
		return
	}
	writeJSON(w, http.StatusOK, telemetry.BuildSpans(q))
}

// cancelPath renders the cancel action URL for query id.
func cancelPath(id int64) string {
	return fmt.Sprintf("POST /queries/cancel?id=%d", id)
}

// queriesResponse is the /queries payload: live in-flight queries plus
// summaries (no traces) of the retained slowest ones.
type queriesResponse struct {
	Active []QueryInfo `json:"active"`
	Slow   []SlowQuery `json:"slow"`
}

func (r *QueryRegistry) handleList(w http.ResponseWriter, _ *http.Request) {
	slow := r.Slow()
	for i := range slow {
		slow[i].Traces = nil // summaries here; /queries/slow has the full traces
	}
	writeJSON(w, http.StatusOK, queriesResponse{Active: r.Active(), Slow: slow})
}

func (r *QueryRegistry) handleSlow(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, r.Slow())
}

func (r *QueryRegistry) handleCancel(w http.ResponseWriter, req *http.Request) {
	id, err := strconv.ParseInt(req.URL.Query().Get("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing or malformed id parameter"})
		return
	}
	if !r.Cancel(id) {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("no active query %d", id)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"cancelled": id})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort to a dead client
}

// Server is a running diagnostics HTTP server.
type Server struct {
	// Addr is the bound address (resolved, so ":0" listeners report
	// their real port).
	Addr string
	srv  *http.Server
}

// Serve starts a diagnostics server on addr in the background and
// returns once the listener is bound — the -diag-addr entry point for
// one-shot tools, which want pprof and /metrics live while they run.
// health may be nil (plain liveness /healthz).
func Serve(addr string, reg *metrics.Registry, qr *QueryRegistry, health func() Health) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{Addr: ln.Addr().String(), srv: &http.Server{Handler: NewMux(reg, qr, health)}}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return s, nil
}

// Close shuts the server down immediately.
func (s *Server) Close() error { return s.srv.Close() }
