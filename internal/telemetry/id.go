// Package telemetry correlates every query's observability signals —
// structured logs, exportable spans, Prometheus metrics, the slow-query
// ring, and the JSONL event log — under one identity. A query's identity
// is a W3C trace context: inbound requests carrying a `traceparent`
// header keep their trace id (so the daemon's spans join a distributed
// trace), everything else gets one minted at admission, and the id is
// echoed on the response so clients can quote it back to operators.
//
// The package is pure stdlib. Its pieces:
//
//   - QueryID (this file): trace identity — parse, mint, render.
//   - record.go: the QueryRecord, the one per-request record every other
//     shape (event, spans, registry entries, response stats) is a view of.
//   - log.go: a context-threaded *slog.Logger so every layer of the
//     stack (serve, rel, compile, exec, storage) emits records carrying
//     query_id without new parameter plumbing.
//   - span.go: renders a record and its trace.Trace records as an
//     exportable span tree, on demand, for the /debug/spans endpoint.
//   - events.go: the sampled JSONL query-event log behind an async
//     bounded buffer whose backpressure is absorbed by a drop counter,
//     never by blocking the serving path.
package telemetry

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
)

// QueryID is one query's trace identity. TraceID is the W3C trace-id
// (shared with the caller when the request arrived with a traceparent);
// SpanID is the id of this process's root span for the query; Parent is
// the caller's span id, zero when the trace was minted locally.
type QueryID struct {
	TraceID [16]byte
	SpanID  [8]byte
	Parent  [8]byte
}

// IsZero reports whether the id is unset.
func (q QueryID) IsZero() bool { return q.TraceID == [16]byte{} }

// String renders the query id as the 32-hex-digit trace id — the form
// that appears in logs, ring entries, span exports and the event log.
func (q QueryID) String() string { return hex.EncodeToString(q.TraceID[:]) }

// SpanIDString renders the root span id as 16 hex digits.
func (q QueryID) SpanIDString() string { return hex.EncodeToString(q.SpanID[:]) }

// ParentString renders the inbound parent span id, "" when none.
func (q QueryID) ParentString() string {
	if q.Parent == ([8]byte{}) {
		return ""
	}
	return hex.EncodeToString(q.Parent[:])
}

// Traceparent renders the outbound W3C traceparent header for this
// query: the shared trace id with this process's root span as parent.
func (q QueryID) Traceparent() string {
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = hex.AppendEncode(b, q.TraceID[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, q.SpanID[:])
	b = append(b, "-01"...)
	return string(b)
}

// ParseTraceparent parses a W3C traceparent header
// (version-traceid-parentid-flags). It accepts version 00 with a
// non-zero trace id and parent id; the returned QueryID keeps the
// caller's trace id, records the caller's span id as Parent, and mints
// a fresh root span id for this process.
func ParseTraceparent(s string) (QueryID, bool) {
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return QueryID{}, false
	}
	if s[:2] != "00" {
		return QueryID{}, false
	}
	var q QueryID
	if _, err := hex.Decode(q.TraceID[:], []byte(s[3:35])); err != nil {
		return QueryID{}, false
	}
	if _, err := hex.Decode(q.Parent[:], []byte(s[36:52])); err != nil {
		return QueryID{}, false
	}
	if _, err := hex.Decode(make([]byte, 1), []byte(s[53:55])); err != nil {
		return QueryID{}, false
	}
	if q.TraceID == ([16]byte{}) || q.Parent == ([8]byte{}) {
		return QueryID{}, false
	}
	q.SpanID = mintSpanID()
	return q, true
}

// MintQueryID mints a fresh query identity (no inbound trace context).
func MintQueryID() QueryID {
	var q QueryID
	fill(q.TraceID[:])
	q.SpanID = mintSpanID()
	return q
}

// mintSpanID returns a fresh non-zero span id.
func mintSpanID() [8]byte {
	var s [8]byte
	fill(s[:])
	return s
}

// idCounter de-correlates ids minted in the same fallback batch if the
// system randomness source ever fails (it realistically cannot).
var idCounter atomic.Uint64

// fill fills b with randomness and guarantees it is non-zero.
func fill(b []byte) {
	if _, err := cryptorand.Read(b); err != nil {
		binary.BigEndian.PutUint64(b[len(b)-8:], idCounter.Add(1)|1<<63)
	}
	allZero := true
	for _, c := range b {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		b[len(b)-1] = 1
	}
}
