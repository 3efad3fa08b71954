// Package serve is the long-running query daemon behind cmd/voodoo-serve:
// TPC-H tables are loaded once, SQL arrives over HTTP, and every request
// runs through the relational engine under the exec resource governor's
// per-request Limits, instrumented end to end — queue wait under the
// admission semaphore, SQL parse+plan time, execution time, rows
// returned — in one telemetry.QueryRecord per request: registered in the
// diagnostics query registry while it executes (live per-step progress,
// cancel action) and handed once, when the request ends, to every
// consumer (see finish).
//
// The HTTP surface:
//
//	POST /query            SQL in the request body
//	GET  /query?sql=...    SQL in the query string
//	GET  /query?q=N        prebuilt TPC-H query N
//	GET  /                 usage text
//
// plus the full diagnostics mux (see package diag): /metrics,
// /debug/pprof/*, /debug/vars, /healthz, /queries, /queries/slow,
// /queries/cancel.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"voodoo/internal/compile"
	"voodoo/internal/diag"
	"voodoo/internal/exec"
	"voodoo/internal/metrics"
	"voodoo/internal/rel"
	"voodoo/internal/sql"
	"voodoo/internal/storage"
	"voodoo/internal/telemetry"
	"voodoo/internal/telemetry/slo"
	"voodoo/internal/tpch"
	"voodoo/internal/trace"
	"voodoo/internal/vector"
	"voodoo/internal/verify"
)

// Config configures a query server.
type Config struct {
	// Cat is the loaded catalog every query runs against.
	Cat *storage.Catalog
	// Opt configures the compiler. Every query runs on the compiled
	// engine, whose fragments batch; the other engines are voodoo-run's.
	Opt compile.Options
	// Limits is the per-request resource governor template; Timeout below
	// bounds each request's wall clock.
	Limits exec.Limits
	// Timeout bounds each request's wall clock, queue wait included
	// (0 = unlimited).
	Timeout time.Duration
	// MaxConcurrent bounds the queries executing at once; excess requests
	// queue (and their wait is measured). 0 = GOMAXPROCS.
	MaxConcurrent int
	// SlowQueries is the slow-query ring capacity (0 = 16).
	SlowQueries int
	// MemHighWater is the live-heap watermark in bytes above which new
	// queries are shed with 503 + Retry-After (0 = shedding disabled).
	MemHighWater int64
	// Registry receives the server's metrics (nil = metrics.Default).
	Registry *metrics.Registry
	// Events is the JSONL query-event log (nil = no event log). The
	// server emits; the owner closes.
	Events *telemetry.EventLog
	// SpanRetain is how many of the most recent requests stay retained
	// for /debug/spans (0 = 64; negative disables the endpoint).
	SpanRetain int
	// SLO is the latency objectives the server tracks per route
	// (empty = no SLO tracking). /query traffic observes under route
	// "query".
	SLO []slo.Objective
}

// Server executes SQL over HTTP against one catalog.
type Server struct {
	cfg  Config
	reg  *metrics.Registry
	qreg *diag.QueryRegistry
	sem  chan struct{}
	pool *vector.Pool

	// cat is the served catalog; SwapCatalog replaces it atomically for
	// hot reloads, so every request loads it exactly once.
	cat atomic.Pointer[storage.Catalog]
	// draining marks the terminal shutting-down state (see lifecycle.go).
	draining atomic.Bool
	// inflight counts requests anywhere inside handleQuery; Shutdown
	// waits for it to reach zero.
	inflight atomic.Int64
	// baseCtx cancels every in-flight query when a drain runs out of
	// patience; each request's context derives from it.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	// queueEWMA is the moving average of measured admission waits in
	// nanoseconds, feeding the deadline-aware admission gate (shed.go).
	queueEWMA atomic.Int64
	memShed   *memShedder

	// events and slos are the telemetry sinks besides the registry: the
	// JSONL event log (owned by the caller) and the per-route error budgets
	// surfaced on /healthz. Both nil-safe.
	events *telemetry.EventLog
	slos   *slo.Tracker

	mQueue   *metrics.Histogram
	mCompile *metrics.Histogram
	mExec    *metrics.Histogram
	mReqs    *metrics.CounterVec
	mRows    *metrics.Counter
	mShed    *metrics.CounterVec
	mReloads *metrics.Counter

	mPlanHits      *metrics.Counter
	mPlanMisses    *metrics.Counter
	mPlanEvictions *metrics.Counter
}

// New builds a Server and registers its metrics.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = metrics.Default
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		qreg:    diag.NewQueryRegistry(cfg.SlowQueries, cfg.SpanRetain),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		memShed: newMemShedder(cfg.MemHighWater),

		mQueue: cfg.Registry.Histogram("voodoo_http_queue_seconds",
			"Time requests wait for an execution slot under the admission semaphore.", nil),
		mCompile: cfg.Registry.Histogram("voodoo_sql_compile_seconds",
			"Time to build a request's plan on a plan-cache miss (parse, plan, lowering and compilation; SQL and ?q=N alike), 0 on a hit.", nil),
		mExec: cfg.Registry.Histogram("voodoo_query_exec_seconds",
			"Time to run a request's prepared plan and assemble its rows.", nil),
		mReqs: cfg.Registry.CounterVec("voodoo_http_requests_total",
			"Query requests served, by HTTP status code.", "code"),
		mRows: cfg.Registry.Counter("voodoo_rows_returned_total",
			"Result rows returned to HTTP clients."),
		mShed: cfg.Registry.CounterVec("voodoo_load_shed_total",
			"Queries refused at admission, by reason (draining, memory, deadline).", "reason"),
		mReloads: cfg.Registry.Counter("voodoo_catalog_reloads_total",
			"Hot catalog reloads applied via SwapCatalog."),
		mPlanHits: cfg.Registry.Counter("voodoo_plan_cache_hits_total",
			"Query requests, SQL and ?q=N, whose prepared plan came from the catalog's memo (the plan build skipped)."),
		mPlanMisses: cfg.Registry.Counter("voodoo_plan_cache_misses_total",
			"Query requests, SQL and ?q=N, whose plan had to be built (parsed and planned for SQL, then lowered and compiled)."),
		mPlanEvictions: cfg.Registry.Counter("voodoo_plan_cache_evictions_total",
			"Memo entries this server's plans pushed out of the catalog's LRU (its bound is shared with every plan memoized on the catalog)."),
	}
	// The served catalog lives in s.cat alone, so a swap releases it.
	s.cat.Store(cfg.Cat)
	s.cfg.Cat = nil
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.pool = vector.NewPool(0)
	s.events = cfg.Events
	if len(cfg.SLO) > 0 {
		s.slos = slo.New(cfg.Registry, 0, cfg.SLO...)
	}
	cfg.Registry.GaugeFunc("voodoo_active_queries",
		"Queries currently executing or unwinding.",
		func() float64 { return float64(s.qreg.ActiveCount()) })
	return s
}

// QueryRegistry exposes the live query registry (the diagnostics mux and
// tests share it).
func (s *Server) QueryRegistry() *diag.QueryRegistry { return s.qreg }

// Mux returns the server's full HTTP surface: the query endpoints
// mounted over the diagnostics mux.
func (s *Server) Mux() *http.ServeMux {
	mux := diag.NewMux(s.reg, s.qreg, s.Health)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/{$}", s.handleIndex)
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `voodoo-serve: SQL over HTTP against a TPC-H catalog

  POST /query            SQL in the request body
  GET  /query?sql=...    SQL in the query string
  GET  /query?q=6        prebuilt TPC-H query 6

  GET  /metrics          Prometheus metrics
  GET  /queries          in-flight queries (live progress) + slow-query summaries
  GET  /queries/slow     slowest queries with full traces
  POST /queries/cancel?id=N
  GET  /debug/pprof/     profiling
  GET  /debug/vars       expvar
  GET  /healthz          liveness
`)
}

// queryResponse is the JSON result of one /query request.
type queryResponse struct {
	Cols  []string         `json:"cols"`
	Rows  []map[string]any `json:"rows"`
	Stats queryStats       `json:"stats"`
}

// queryStats is the response's view of the request's record, echoed to
// the client; the same numbers feed the server's histograms. PlanLookupNS
// is the memo lookup; CompileNS is parse+plan+compile and is 0 when Cached
// (the plan came from the catalog's memo).
type queryStats struct {
	// QueryID is the telemetry correlation id, also echoed in the
	// Traceparent / X-Voodoo-Query-Id response headers.
	QueryID      string `json:"query_id"`
	QueueNS      int64  `json:"queue_ns"`
	PlanLookupNS int64  `json:"plan_lookup_ns"`
	CompileNS    int64  `json:"compile_ns"`
	ExecNS       int64  `json:"exec_ns"`
	Rows         int    `json:"rows"`
	Cached       bool   `json:"cached"`
}

type queryError struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// sqlKey names a served SQL plan within its catalog's memo: the normalized
// text plus the settings Prepare compiles it with. It is a type of its own,
// so it never collides with the relational engine's keys.
type sqlKey struct {
	sql    string
	opt    compile.Options
	verify bool // compilation runs the IR verifier
}

// normalizeSQL collapses whitespace outside string literals, so formatting
// variants of one query share a memo entry; a literal is kept as written,
// since its spaces are part of the value it compares with. A quote always
// ends a token, so dropping the spaces next to one changes nothing.
func normalizeSQL(src string) string {
	if !strings.Contains(src, "'") {
		return strings.Join(strings.Fields(src), " ")
	}
	parts := strings.Split(src, "'")
	for i := 0; i < len(parts); i += 2 {
		parts[i] = strings.Join(strings.Fields(parts[i]), " ")
	}
	return strings.Join(parts, "'")
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Counted in flight from the first instruction to the last, finish
	// included: Shutdown waits for zero, and the daemon closes the event
	// log right after it.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	// Identity first: every request — including the ones the admission
	// gates refuse — gets a record with a query id, echoed on the response
	// and carried by every view the request leaves behind. Every exit
	// below reports through this one deferred finish, which runs while the
	// request still holds its execution slot.
	rec := beginRecord(w, r)
	var resp queryResponse
	admitted := false
	defer func() {
		s.finish(w, rec, &resp)
		if admitted {
			<-s.sem
		}
	}()

	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		rec.Fail(http.StatusMethodNotAllowed, "method", fmt.Errorf("use GET or POST"))
		return
	}

	// Admission gate 1: a draining server refuses new work outright.
	if s.draining.Load() {
		rec.Fail(http.StatusServiceUnavailable, "shed-draining", fmt.Errorf("server is draining for shutdown"))
		return
	}
	// Admission gate 2: above the live-heap watermark every new query is
	// shed — the process is closer to the OOM killer than to spare
	// capacity, and refusals are the only load it can still take.
	if s.memShed.over() {
		rec.Fail(http.StatusServiceUnavailable, "shed-memory", fmt.Errorf("server heap above the load-shedding watermark"))
		return
	}

	// Every request derives from baseCtx so a forced drain cancels all
	// in-flight queries at once, before Shutdown's cancel returns, and
	// follows the client connection so a disconnect cancels just this one.
	ctx, cancelReq := context.WithCancel(s.baseCtx)
	defer cancelReq()
	stopAfter := context.AfterFunc(r.Context(), cancelReq)
	defer stopAfter()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, rec.Arrived.Add(s.cfg.Timeout))
		defer cancel()
	}
	if dl, ok := ctx.Deadline(); ok {
		rec.Deadline = dl.Sub(rec.Arrived)
	}
	ctx = queryContext(ctx, rec.ID)

	src, qnum, err := s.requestQuery(r)
	if err != nil {
		rec.Fail(http.StatusBadRequest, "parse", err)
		return
	}
	rec.SQL = src

	// Admission gate 3: a request whose remaining deadline budget is
	// already smaller than the measured queue wait is doomed — unless a
	// slot is free right now, refuse it instead of queueing it to die.
	if dl, ok := ctx.Deadline(); ok {
		if est := s.expectedQueueWait(); est > 0 && time.Until(dl) < est {
			select {
			case s.sem <- struct{}{}:
				admitted = true
			default:
				rec.Fail(http.StatusServiceUnavailable, "shed-deadline", fmt.Errorf(
					"deadline budget %v is below the expected queue wait %v",
					time.Until(dl).Round(time.Millisecond), est.Round(time.Millisecond)))
				return
			}
		}
	}
	// Admission: wait for an execution slot; the wait is the queue-time
	// histogram and counts against the request deadline.
	if !admitted {
		select {
		case s.sem <- struct{}{}:
			admitted = true
		case <-ctx.Done():
			rec.Fail(http.StatusServiceUnavailable, "queue",
				fmt.Errorf("timed out waiting for an execution slot: %w", ctx.Err()))
			return
		}
	}
	rec.QueueWait = time.Since(rec.Arrived)
	s.noteQueueWait(rec.QueueWait)

	// The catalog pointer is pinned here for the whole request: a
	// concurrent SwapCatalog must never mix two catalogs in one query.
	cat := s.cat.Load()

	// The engine is per-request (it carries the trace sink) but shares the
	// server-wide buffer pool, so working memory recycles across requests.
	e := &rel.Engine{Cat: cat, Opt: s.cfg.Opt, Limits: s.cfg.Limits, Pool: s.pool}
	e.TraceSink = func(t *trace.Trace) { rec.Traces = append(rec.Traces, t) }

	// Both kinds of request run through runPlan: SQL keyed by its text, a
	// TPC-H query by its number through a runner whose Run is runPlan, so
	// the ratios Q8 and Q14 compute after Run keep working.
	var res *rel.Result
	if qnum > 0 {
		var qf tpch.QueryFunc
		if qf, err = tpch.Query(qnum); err != nil {
			rec.Fail(http.StatusBadRequest, "parse", err)
			return
		}
		rec.SQL = fmt.Sprintf("TPC-H Q%d", qnum)
		res, _, err = qf(&servedRunner{s: s, ctx: ctx, rec: rec, e: e,
			key: tpchKey{num: qnum, opt: s.cfg.Opt, verify: verify.Enabled()}})
	} else {
		key := sqlKey{sql: normalizeSQL(src), opt: s.cfg.Opt, verify: verify.Enabled()}
		res, err = s.runPlan(ctx, rec, e, key, func() (*rel.Prepared, error) {
			stmt, err := sql.Parse(src)
			if err != nil {
				return nil, parseError{err}
			}
			q, err := sql.Plan(stmt, cat)
			if err != nil {
				return nil, err
			}
			q.Name = src
			return e.Prepare(q)
		})
	}
	if err != nil {
		return
	}

	resp.Cols, resp.Rows = res.Cols, make([]map[string]any, 0, len(res.Rows))
	dict := make([]bool, len(res.Cols))
	for j, c := range res.Cols {
		dict[j] = res.Dict(c)
	}
	for _, row := range res.Rows {
		out := make(map[string]any, len(row))
		for j, c := range res.Cols {
			// Dictionary-encoded columns decode back to their strings.
			if dict[j] {
				out[c] = res.Decode(c, row[c])
			} else {
				out[c] = row[c]
			}
		}
		resp.Rows = append(resp.Rows, out)
	}
	rec.Status, rec.Rows = http.StatusOK, len(resp.Rows)
}

// parseError marks a plan build that failed in the SQL parser: a 400 of
// kind "parse" rather than "plan".
type parseError struct{ error }

// runPlan is every request's one way to a result: it looks its plan up in
// the catalog's memo under key (so a replaced table or a swapped catalog
// takes the plan along), calls build on a miss, and runs the plan under
// ctx. It fills rec's plan phases and execution time, counts the lookup,
// and registers rec for /queries once the plan is in hand. A failure is
// recorded on rec with its status and kind, and returned.
func (s *Server) runPlan(ctx context.Context, rec *telemetry.QueryRecord, e *rel.Engine, key any, build func() (*rel.Prepared, error)) (*rel.Result, error) {
	var compileDur time.Duration
	lookupStart := time.Now()
	v, hit, evicted, err := e.Cat.Derived(key, func() (any, error) {
		compileStart := time.Now()
		defer func() { compileDur = time.Since(compileStart) }()
		return build()
	})
	if hit {
		s.mPlanHits.Inc()
	} else {
		s.mPlanMisses.Inc()
	}
	if evicted {
		s.mPlanEvictions.Inc()
	}
	lookupDur := time.Since(lookupStart) - compileDur
	if err != nil {
		switch {
		case errors.As(err, new(*storage.CorruptError)):
			rec.Fail(http.StatusServiceUnavailable, "quarantined", err)
		case errors.As(err, new(parseError)):
			rec.Fail(http.StatusBadRequest, "parse", err)
		default:
			rec.Fail(http.StatusBadRequest, "plan", err)
		}
		return nil, err
	}
	// The plan phases enter the record only once the plan is in hand, in
	// one piece and before registration makes them visible to scrapers.
	rec.PlanLookup, rec.Compile, rec.Cached = lookupDur, compileDur, hit

	// Execute under a cancellable context registered for the /queries
	// cancel action, with completed trace steps streaming into the record
	// as live progress.
	ctx, rec.Cancel = context.WithCancel(ctx)
	defer rec.Cancel()
	s.qreg.Begin(rec)
	ctx = trace.WithObserver(ctx, rec.Observe)
	execStart := time.Now()
	res, _, err := e.RunPrepared(ctx, v.(*rel.Prepared))
	rec.Exec = time.Since(execStart)
	if err != nil {
		code, kind := statusFor(err)
		rec.Fail(code, kind, err)
	}
	return res, err
}

// tpchKey names a served TPC-H plan within its catalog's memo: the query
// number plus the settings Prepare compiles it with. Every TPC-H query is
// one plan, which its QueryFunc builds from the catalog alone, so the
// number stands for the plan on that catalog.
type tpchKey struct {
	num    int
	opt    compile.Options
	verify bool // compilation runs the IR verifier
}

// servedRunner is the rel.Runner a served TPC-H QueryFunc runs through:
// its Run resolves and runs the query's plan with runPlan.
type servedRunner struct {
	s   *Server
	ctx context.Context
	rec *telemetry.QueryRecord
	e   *rel.Engine
	key tpchKey
}

func (r *servedRunner) Run(q rel.Query) (*rel.Result, *exec.Stats, error) {
	res, err := r.s.runPlan(r.ctx, r.rec, r.e, r.key, func() (*rel.Prepared, error) { return r.e.Prepare(q) })
	return res, nil, err
}

func (r *servedRunner) Catalog() *storage.Catalog { return r.e.Cat }

// requestQuery extracts the SQL text or TPC-H query number from the
// request.
func (s *Server) requestQuery(r *http.Request) (src string, qnum int, err error) {
	if qs := r.URL.Query().Get("q"); qs != "" {
		n, err := strconv.Atoi(qs)
		if err != nil || n <= 0 {
			return "", 0, fmt.Errorf("malformed TPC-H query number %q", qs)
		}
		return "", n, nil
	}
	src = r.URL.Query().Get("sql")
	if src == "" && r.Body != nil {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			return "", 0, fmt.Errorf("reading request body: %w", err)
		}
		src = string(body)
	}
	if strings.TrimSpace(src) == "" {
		return "", 0, fmt.Errorf("no query given (POST a SQL body, or pass ?sql= or ?q=N)")
	}
	return src, 0, nil
}

// StatusClientClosedRequest is nginx's non-standard 499: the query was
// cancelled (by the client going away or by the /queries/cancel action)
// rather than failing.
const StatusClientClosedRequest = 499

// statusFor maps an execution error to an HTTP status and a kind label.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, exec.ErrResourceExhausted):
		return http.StatusTooManyRequests, "resource"
	default:
		var ce *storage.CorruptError
		if errors.As(err, &ce) {
			return http.StatusServiceUnavailable, "quarantined"
		}
		var pe *exec.PanicError
		if errors.As(err, &pe) {
			return http.StatusInternalServerError, "panic"
		}
		return http.StatusInternalServerError, "internal"
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort to a dead client
}
