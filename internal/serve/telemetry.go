package serve

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"voodoo/internal/telemetry"
)

// beginRecord opens the request's record and resolves its identity: an
// inbound W3C traceparent is adopted (same trace id, caller's span as
// parent), any other request gets a freshly minted id. Both the
// traceparent and the bare query id echo on the response before any body
// is written, so a client can always correlate its request with the
// server's telemetry.
func beginRecord(w http.ResponseWriter, r *http.Request) *telemetry.QueryRecord {
	qid, ok := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		qid = telemetry.MintQueryID()
	}
	h := w.Header()
	h.Set("Traceparent", qid.Traceparent())
	h.Set("X-Voodoo-Query-Id", qid.String())
	return &telemetry.QueryRecord{ID: qid, Arrived: time.Now()}
}

// queryContext threads a logger pre-bound to the query id into ctx for the
// engine layers when the process logger is live. The Enabled guard keeps
// the disabled path allocation-free.
func queryContext(ctx context.Context, qid telemetry.QueryID) context.Context {
	if lg := telemetry.Default(); lg.Enabled(ctx, slog.LevelError) {
		ctx = telemetry.WithLogger(ctx, lg.With("query_id", qid.String()))
	}
	return ctx
}

// finish is the single exit of every request: it closes the record and
// hands it, once, to everything that observes a request's outcome — the
// query registry (which publishes it to /queries/slow and /debug/spans),
// the histograms and counters, the SLO budget, the JSONL event log (which
// applies its own sampling), the process log — and last the client, so
// whoever reads the response finds every other view already in place.
func (s *Server) finish(w http.ResponseWriter, rec *telemetry.QueryRecord, resp *queryResponse) {
	rec.Wall = time.Since(rec.Arrived)
	s.qreg.Finish(rec)

	// Phase histograms take the phases the request reached: the queue wait
	// of every admitted request, plan and execution time of every request
	// that got a plan (Seq is set when execution is registered).
	if rec.QueueWait > 0 {
		s.mQueue.Observe(rec.QueueWait.Seconds())
	}
	if rec.Seq != 0 {
		s.mCompile.Observe(rec.Compile.Seconds())
		s.mExec.Observe(rec.Exec.Seconds())
	}
	s.mReqs.With(strconv.Itoa(rec.Status)).Inc()
	s.mRows.Add(int64(rec.Rows))
	if reason, shed := strings.CutPrefix(rec.Kind, "shed-"); shed {
		s.mShed.With(reason).Inc()
		w.Header().Set("Retry-After", "1")
	}
	// Only server-side failures burn error budget at any latency; client
	// errors and cancellations count as good when they return in time.
	s.slos.Observe("query", rec.Wall, rec.Status >= 500)
	s.events.Emit(rec)

	lg := telemetry.Default()
	lvl := slog.LevelInfo
	if rec.Status >= 500 {
		lvl = slog.LevelWarn
	}
	if lg.Enabled(context.Background(), lvl) {
		attrs := []slog.Attr{
			slog.String("query_id", rec.ID.String()),
			slog.Int("status", rec.Status),
			slog.Duration("wall", rec.Wall),
			slog.Duration("queue_wait", rec.QueueWait),
			slog.Int("rows", rec.Rows),
			slog.Bool("cached_plan", rec.Cached),
		}
		if rec.SQL != "" {
			attrs = append(attrs, slog.String("sql", rec.SQL))
		}
		if rec.Kind != "" {
			attrs = append(attrs, slog.String("kind", rec.Kind))
		}
		if rec.Error != "" {
			attrs = append(attrs, slog.String("error", rec.Error))
		}
		lg.LogAttrs(context.Background(), lvl, "query", attrs...)
	}

	if rec.Status != http.StatusOK {
		writeJSON(w, rec.Status, queryError{Error: rec.Error, Kind: rec.Kind})
		return
	}
	resp.Stats = queryStats{
		QueryID: rec.ID.String(),
		QueueNS: rec.QueueWait.Nanoseconds(), PlanLookupNS: rec.PlanLookup.Nanoseconds(),
		CompileNS: rec.Compile.Nanoseconds(), ExecNS: rec.Exec.Nanoseconds(),
		Rows: rec.Rows, Cached: rec.Cached,
	}
	writeJSON(w, http.StatusOK, resp)
}
