package telemetry

import (
	"context"
	"sync/atomic"
	"time"

	"voodoo/internal/trace"
)

// QueryRecord is everything the process knows about one served request:
// created once at arrival, filled in place as the request advances, and
// handed once — when the request ends — to every consumer (metrics, the
// SLO tracker, the event log, the query registry, the log line, the
// response). Every other shape a request takes on the wire — the response
// stats block, the JSONL Event, the /queries and /queries/slow entries,
// the /debug/spans tree — is a view rendered from it when somebody reads.
//
// Sharing rule. Only the serving goroutine writes a record. While the
// record sits in the registry's active set, scrapers may read what was set
// before registration (identity, admission and plan phases, Seq, Started)
// and the live-progress atomics; everything else is read only after the
// registry's Finish has published the record, from which point nobody
// writes it again.
type QueryRecord struct {
	// Identity, known at arrival. SQL is "" for a request refused before
	// its text was read.
	ID      QueryID
	SQL     string
	Arrived time.Time
	// Deadline is the remaining deadline budget at arrival (0 = none).
	Deadline time.Duration

	// Phases, each set when the request completes it and zero if it never
	// got there: the admission-semaphore wait, the probe of the catalog's
	// plan memo, parse+plan+compile (0 on a memo hit, marked by Cached), the engine
	// run, and the whole request from arrival to outcome.
	QueueWait  time.Duration
	PlanLookup time.Duration
	Compile    time.Duration
	Cached     bool
	Exec       time.Duration
	Wall       time.Duration
	Rows       int

	// Outcome: the HTTP status, and for a failure its kind label ("parse",
	// "canceled", "shed-memory", …) and message.
	Status int
	Kind   string
	Error  string

	// Traces are the execution traces the engine produced, one per lowered
	// program, held by pointer: whatever a trace.Step carries flows into
	// every view without touching the record.
	Traces []*trace.Trace

	// Registration, set by the query registry when execution begins: the
	// registry-assigned sequence number (the /queries/cancel handle; 0 = the
	// request never reached execution) and the execution start. Cancel, when
	// set, is what the registry's cancel action invokes while the query is
	// active; the registry drops it at Finish.
	Seq     int64
	Started time.Time
	Cancel  context.CancelFunc

	// Live progress, fed by Observe while the query runs.
	steps    atomic.Int64
	items    atomic.Int64
	matBytes atomic.Int64
	lastStep atomic.Pointer[string]
}

// Observe records one completed trace step. It is a trace.Observer: attach
// it to the query's context with trace.WithObserver and the traced
// backends stream live progress here, safely against concurrent Progress
// readers.
func (r *QueryRecord) Observe(s trace.Step) {
	r.steps.Add(1)
	r.items.Add(s.Items)
	r.matBytes.Add(s.MaterializedBytes)
	name := s.Kind + " " + s.Name
	r.lastStep.Store(&name)
}

// Progress returns the query's progress so far: completed plan steps, work
// items, bytes materialized at fragment seams, and the most recently
// completed step ("fragment sel_fused", "bulk FoldSum", …; "" before the
// first).
func (r *QueryRecord) Progress() (steps, items, matBytes int64, lastStep string) {
	if p := r.lastStep.Load(); p != nil {
		lastStep = *p
	}
	return r.steps.Load(), r.items.Load(), r.matBytes.Load(), lastStep
}

// Fail records a failed outcome.
func (r *QueryRecord) Fail(status int, kind string, err error) {
	r.Status, r.Kind, r.Error = status, kind, err.Error()
}
