// Package diag is the always-on diagnostics surface of a Voodoo process:
// an HTTP server mounting Prometheus metrics, pprof, expvar, and a live
// view of in-flight queries with a cancel action, a retained ring of the
// slowest queries' full traces, and the span trees of the most recent
// ones.
//
// The query registry is the piece the rest of the stack feeds, and the
// only place a finished query is retained. It holds telemetry.QueryRecord
// pointers and nothing else: a record enters the active set at Begin,
// streams completed trace steps into its own progress counters (via the
// trace package's context-carried Observer), and is published at Finish,
// where it joins the most-recent ring and competes for a slot among the
// slowest. Every endpoint renders its wire shape from the record when it
// is read. Everything is safe for concurrent use; in-flight progress
// counters are atomics so the serving goroutine never contends with
// scrapers.
package diag

import (
	"context"
	"encoding/hex"
	"sort"
	"sync"
	"time"

	"voodoo/internal/telemetry"
	"voodoo/internal/trace"
)

// QueryRegistry tracks in-flight queries and retains finished ones: the
// slowest by execution time, and the most recent by arrival at Finish.
type QueryRegistry struct {
	mu     sync.Mutex
	seq    int64
	active map[int64]*telemetry.QueryRecord
	// slow holds at most slowN records, slowest first.
	slow  []*telemetry.QueryRecord
	slowN int
	// recent is a ring of the last finished requests (nil = disabled);
	// byID maps a query id (its trace id) to the slot of the newest record
	// carrying it.
	recent []*telemetry.QueryRecord
	next   int
	byID   map[[16]byte]int
}

// NewQueryRegistry returns a registry retaining the slowN slowest queries
// by execution time (slowN <= 0 defaults to 16) and the recentN most
// recently finished requests (0 defaults to 64; negative retains none,
// which also leaves /debug/spans unmounted).
func NewQueryRegistry(slowN, recentN int) *QueryRegistry {
	if slowN <= 0 {
		slowN = 16
	}
	if recentN == 0 {
		recentN = 64
	}
	r := &QueryRegistry{active: map[int64]*telemetry.QueryRecord{}, slowN: slowN}
	if recentN > 0 {
		r.recent = make([]*telemetry.QueryRecord, recentN)
		r.byID = make(map[[16]byte]int, recentN)
	}
	return r
}

// Begin registers q as in flight, assigning its Seq and Started. Whatever
// the live views show of q besides its progress — identity, admission and
// plan phases, Cancel — must be set before the call. Cancel, when non-nil,
// is invoked by the registry's Cancel action (and never by the registry
// itself otherwise); the caller still owns the context.
func (r *QueryRegistry) Begin(q *telemetry.QueryRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	q.Seq, q.Started = r.seq, time.Now()
	r.active[q.Seq] = q
}

// Finish publishes q, which nobody may write from here on: it leaves the
// active set and competes for the slowest-N ring if it was registered (a
// request refused before execution never enters either), and it joins the
// most-recent ring in any case. Its Cancel is dropped: a retained record
// must not keep the request's context chain alive.
func (r *QueryRegistry) Finish(q *telemetry.QueryRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if q.Seq != 0 {
		delete(r.active, q.Seq)
		q.Cancel = nil
		if i := sort.Search(len(r.slow), func(i int) bool { return r.slow[i].Exec < q.Exec }); i < r.slowN {
			if len(r.slow) < r.slowN {
				r.slow = append(r.slow, nil)
			}
			copy(r.slow[i+1:], r.slow[i:])
			r.slow[i] = q
		}
	}
	if r.recent == nil {
		return
	}
	slot := r.next
	r.next = (r.next + 1) % len(r.recent)
	// Requests of one distributed trace share a query id: drop the evicted
	// record's index entry only if a newer record has not taken it over.
	if old := r.recent[slot]; old != nil && r.byID[old.ID.TraceID] == slot {
		delete(r.byID, old.ID.TraceID)
	}
	r.recent[slot] = q
	r.byID[q.ID.TraceID] = slot
}

// Cancel invokes the cancel action of the active query seq and reports
// whether such a query existed (the query stays listed as active until
// its runner actually unwinds and calls Finish).
func (r *QueryRegistry) Cancel(seq int64) bool {
	r.mu.Lock()
	q, ok := r.active[seq]
	var cancel context.CancelFunc
	if ok {
		cancel = q.Cancel
	}
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return ok
}

// ActiveCount returns the number of in-flight queries (the
// voodoo_active_queries gauge).
func (r *QueryRegistry) ActiveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
}

// Lookup returns the newest retained record carrying queryID.
func (r *QueryRegistry) Lookup(queryID string) (*telemetry.QueryRecord, bool) {
	var id [16]byte
	if len(queryID) != hex.EncodedLen(len(id)) {
		return nil, false
	}
	if _, err := hex.Decode(id[:], []byte(queryID)); err != nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, ok := r.byID[id]
	if !ok {
		return nil, false
	}
	return r.recent[slot], true
}

// RecentIDs lists the query ids Lookup can answer, most recent first —
// the index page of /debug/spans.
func (r *QueryRegistry) RecentIDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.byID))
	for i, n := 1, len(r.recent); i <= n; i++ {
		slot := ((r.next-i)%n + n) % n
		if q := r.recent[slot]; q != nil && r.byID[q.ID.TraceID] == slot {
			out = append(out, q.ID.String())
		}
	}
	return out
}

// queryView is what /queries and /queries/slow say about a query in
// either state, rendered from its record by view.
type queryView struct {
	ID int64 `json:"id"`
	// QueryID is the telemetry correlation id — grep the event log or hit
	// /debug/spans?query_id= with it.
	QueryID   string    `json:"query_id,omitempty"`
	SQL       string    `json:"sql"`
	StartedAt time.Time `json:"started_at"`
	// QueueNS is the admission-queue wait; DeadlineNS the remaining
	// deadline budget at arrival (0 = none) — the two numbers that
	// distinguish "the query is slow" from "the query waited".
	QueueNS           int64 `json:"queue_ns,omitempty"`
	DeadlineNS        int64 `json:"deadline_ns,omitempty"`
	Items             int64 `json:"items"`
	MaterializedBytes int64 `json:"materialized_bytes"`
	// PlanLookupNS and CompileNS split plan acquisition: memo lookup
	// versus parse+plan+compile. CachedPlan marks a memo hit (CompileNS 0).
	PlanLookupNS int64 `json:"plan_lookup_ns"`
	CompileNS    int64 `json:"compile_ns"`
	CachedPlan   bool  `json:"cached_plan"`
}

// view renders the shared part of q's wire shapes and returns its live
// progress. It reads only what an unfinished record may share (see
// telemetry.QueryRecord).
func view(q *telemetry.QueryRecord) (v queryView, steps int64, lastStep string) {
	v = queryView{
		ID: q.Seq, QueryID: q.ID.String(), SQL: q.SQL, StartedAt: q.Started,
		QueueNS: q.QueueWait.Nanoseconds(), DeadlineNS: q.Deadline.Nanoseconds(),
		PlanLookupNS: q.PlanLookup.Nanoseconds(), CompileNS: q.Compile.Nanoseconds(),
		CachedPlan: q.Cached,
	}
	steps, v.Items, v.MaterializedBytes, lastStep = q.Progress()
	return v, steps, lastStep
}

// QueryInfo is the /queries wire shape of one in-flight query.
type QueryInfo struct {
	queryView
	ElapsedNS int64 `json:"elapsed_ns"`
	// StepsDone counts completed plan steps; LastStep names the most
	// recently completed one ("fragment sel_fused", "bulk FoldSum", …) —
	// together they are the query's live progress.
	StepsDone int64  `json:"steps_done"`
	LastStep  string `json:"last_step,omitempty"`
	// Cancel is the ready-to-use cancel action for this query.
	Cancel string `json:"cancel"`
}

// Active renders the in-flight queries, oldest first.
func (r *QueryRegistry) Active() []QueryInfo {
	r.mu.Lock()
	qs := make([]*telemetry.QueryRecord, 0, len(r.active))
	for _, q := range r.active {
		qs = append(qs, q)
	}
	r.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].Seq < qs[j].Seq })
	out := make([]QueryInfo, len(qs))
	for i, q := range qs {
		v, steps, last := view(q)
		out[i] = QueryInfo{
			queryView: v, ElapsedNS: time.Since(q.Started).Nanoseconds(),
			StepsDone: steps, LastStep: last, Cancel: cancelPath(q.Seq),
		}
	}
	return out
}

// SlowQuery is the /queries/slow wire shape of one retained query. WallNS
// is the execution time the ring ranks by.
type SlowQuery struct {
	queryView
	WallNS int64          `json:"wall_ns"`
	Error  string         `json:"error,omitempty"`
	Traces []*trace.Trace `json:"traces,omitempty"`
}

// Slow renders the retained slowest queries, slowest first.
func (r *QueryRegistry) Slow() []SlowQuery {
	r.mu.Lock()
	qs := append([]*telemetry.QueryRecord(nil), r.slow...)
	r.mu.Unlock()
	out := make([]SlowQuery, len(qs))
	for i, q := range qs {
		v, _, _ := view(q)
		out[i] = SlowQuery{queryView: v, WallNS: q.Exec.Nanoseconds(), Error: q.Error, Traces: q.Traces}
	}
	return out
}
