package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"time"

	"voodoo/internal/metrics"
)

// The JSONL query-event log: one line per retained query, written off
// the serving path through a bounded buffer. Three properties matter:
//
//   - Sampling is the policy, not the mechanism: errors, shed requests
//     and slow queries are always retained; ordinary queries are
//     retained with probability SampleRate. An unsampled query costs one
//     branch and one rand draw — no marshalling, no channel send.
//   - Backpressure is absorbed by a drop counter, never by blocking:
//     when the buffer is full, Emit counts the loss and returns. A
//     stalled disk degrades the log, not the serving path.
//   - Close is flush-on-quiesce: every event accepted into the buffer is
//     written before Close returns, so a SIGTERM drain loses nothing.

// Event is the JSONL line of one query: the wire view of its QueryRecord
// (cmd/voodoo-trace parses it back).
type Event struct {
	Time    time.Time `json:"time"`
	QueryID string    `json:"query_id"`
	SQL     string    `json:"sql,omitempty"`
	// Status is the HTTP status code; Kind is the error kind label
	// ("parse", "canceled", "shed-memory", …), "" on success.
	Status int    `json:"status"`
	Kind   string `json:"kind,omitempty"`
	Error  string `json:"error,omitempty"`

	WallNS       int64 `json:"wall_ns"`
	QueueNS      int64 `json:"queue_ns,omitempty"`
	PlanLookupNS int64 `json:"plan_lookup_ns,omitempty"`
	CompileNS    int64 `json:"compile_ns,omitempty"`
	ExecNS       int64 `json:"exec_ns,omitempty"`
	Rows         int   `json:"rows,omitempty"`
	Cached       bool  `json:"cached,omitempty"`
	// DeadlineNS is the request's remaining deadline budget at arrival
	// (0 = no deadline).
	DeadlineNS int64 `json:"deadline_ns,omitempty"`
	// Sampled names why the event was retained: "error", "shed", "slow"
	// or "random".
	Sampled string `json:"sampled"`
}

// EventLogConfig configures an event log.
type EventLogConfig struct {
	// W receives the JSONL stream. Writes happen on the log's single
	// writer goroutine, so W needs no locking of its own.
	W io.Writer
	// Buffer is the bounded queue between Emit and the writer
	// (0 = 256). Events beyond it are dropped and counted.
	Buffer int
	// SampleRate is the retention probability for ordinary queries
	// (errors, shed requests and slow queries are always retained).
	// 0 retains none of them; DefaultSampleRate is the daemon default.
	SampleRate float64
	// SlowThreshold always retains queries at or above this wall time
	// (0 = the slowness rule is off).
	SlowThreshold time.Duration
	// Registry receives the sink's counters (nil = metrics.Default).
	Registry *metrics.Registry
}

// DefaultSampleRate retains 1% of ordinary queries — enough to keep the
// latency mix visible in the log while a storm of cheap queries stays
// cheap.
const DefaultSampleRate = 0.01

// EventLog is the async JSONL sink. The zero value is not usable; a nil
// *EventLog is (every method no-ops), so callers thread it without
// guards.
type EventLog struct {
	cfg  EventLogConfig
	ch   chan []byte
	quit chan struct{}
	done chan struct{}

	closed   atomic.Bool
	accepted atomic.Int64
	written  atomic.Int64
	dropped  atomic.Int64
	sampled  atomic.Int64 // sampled out (not retained)
}

// NewEventLog starts an event log writing to cfg.W.
func NewEventLog(cfg EventLogConfig) *EventLog {
	if cfg.Buffer <= 0 {
		cfg.Buffer = 256
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.Default
	}
	l := &EventLog{
		cfg:  cfg,
		ch:   make(chan []byte, cfg.Buffer),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	cfg.Registry.CounterFunc("voodoo_events_written_total",
		"Query events written to the JSONL event log.",
		func() float64 { return float64(l.written.Load()) })
	cfg.Registry.CounterFunc("voodoo_events_dropped_total",
		"Query events dropped because the event-log buffer was full.",
		func() float64 { return float64(l.dropped.Load()) })
	cfg.Registry.CounterFunc("voodoo_events_sampled_out_total",
		"Ordinary query events not retained by the sampling policy.",
		func() float64 { return float64(l.sampled.Load()) })
	go l.writer()
	return l
}

// sampleReason decides retention: errors, shed requests and slow
// queries always; ordinary queries probabilistically.
func (l *EventLog) sampleReason(r *QueryRecord) (string, bool) {
	switch {
	case strings.HasPrefix(r.Kind, "shed"):
		return "shed", true
	case r.Error != "" || r.Status >= 400:
		return "error", true
	case l.cfg.SlowThreshold > 0 && r.Wall >= l.cfg.SlowThreshold:
		return "slow", true
	case l.cfg.SampleRate > 0 && rand.Float64() < l.cfg.SampleRate:
		return "random", true
	}
	return "", false
}

// Emit offers one finished query to the log. It never blocks: an unsampled
// query returns after one branch — its Event is never built — and a full
// buffer drops the event into the drop counter. Nil-safe.
func (l *EventLog) Emit(r *QueryRecord) {
	if l == nil || l.closed.Load() {
		return
	}
	reason, keep := l.sampleReason(r)
	if !keep {
		l.sampled.Add(1)
		return
	}
	b, err := json.Marshal(&Event{
		Time: r.Arrived, QueryID: r.ID.String(), SQL: r.SQL,
		Status: r.Status, Kind: r.Kind, Error: r.Error,
		WallNS: r.Wall.Nanoseconds(), QueueNS: r.QueueWait.Nanoseconds(),
		PlanLookupNS: r.PlanLookup.Nanoseconds(), CompileNS: r.Compile.Nanoseconds(),
		ExecNS: r.Exec.Nanoseconds(), Rows: r.Rows, Cached: r.Cached,
		DeadlineNS: r.Deadline.Nanoseconds(), Sampled: reason,
	})
	if err != nil {
		l.dropped.Add(1)
		return
	}
	b = append(b, '\n')
	select {
	case l.ch <- b:
		l.accepted.Add(1)
	default:
		l.dropped.Add(1)
	}
}

// writer is the single consumer: it writes lines as they arrive and
// flushes whenever the buffer goes idle, so the file tails usefully
// without paying a flush per line under load.
func (l *EventLog) writer() {
	defer close(l.done)
	bw := bufio.NewWriter(l.cfg.W)
	write := func(b []byte) {
		if _, err := bw.Write(b); err == nil {
			l.written.Add(1)
		} else {
			l.dropped.Add(1)
		}
	}
	for {
		select {
		case b := <-l.ch:
			write(b)
			if len(l.ch) == 0 {
				bw.Flush() //nolint:errcheck // write errors already counted
			}
		case <-l.quit:
			// Flush-on-quiesce: drain whatever Emit already accepted,
			// then flush. Nothing accepted is ever lost to shutdown.
			for {
				select {
				case b := <-l.ch:
					write(b)
				default:
					bw.Flush() //nolint:errcheck
					return
				}
			}
		}
	}
}

// Close stops accepting events, drains the buffer to the writer, and
// flushes. Safe to call more than once; nil-safe. Call it only after
// the emitters have quiesced (the daemon closes the log after its HTTP
// drain completes).
func (l *EventLog) Close() error {
	if l == nil || !l.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(l.quit)
	<-l.done
	if c, ok := l.cfg.W.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Accepted returns the events accepted into the buffer so far.
func (l *EventLog) Accepted() int64 {
	if l == nil {
		return 0
	}
	return l.accepted.Load()
}

// Written returns the events written to the underlying writer.
func (l *EventLog) Written() int64 {
	if l == nil {
		return 0
	}
	return l.written.Load()
}

// Dropped returns the events lost to buffer backpressure (or write
// errors).
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}

// SampledOut returns the ordinary events the sampling policy skipped.
func (l *EventLog) SampledOut() int64 {
	if l == nil {
		return 0
	}
	return l.sampled.Load()
}
