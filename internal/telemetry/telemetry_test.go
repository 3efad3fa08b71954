package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"voodoo/internal/metrics"
	"voodoo/internal/trace"
)

// TestTraceparentRoundTrip: an inbound W3C traceparent keeps its trace
// id, records the caller's span as parent, mints a fresh root span, and
// renders an echo header carrying the same trace id.
func TestTraceparentRoundTrip(t *testing.T) {
	in := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	q, ok := ParseTraceparent(in)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected a valid header", in)
	}
	if got := q.String(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("trace id %q not preserved", got)
	}
	if got := q.ParentString(); got != "b7ad6b7169203331" {
		t.Errorf("parent span %q not preserved", got)
	}
	if q.SpanIDString() == q.ParentString() || q.SpanID == ([8]byte{}) {
		t.Errorf("root span id not freshly minted: %q", q.SpanIDString())
	}
	echo := q.Traceparent()
	if !strings.HasPrefix(echo, "00-0af7651916cd43dd8448eb211c80319c-") || !strings.HasSuffix(echo, "-01") {
		t.Errorf("echo header %q does not carry the shared trace id", echo)
	}
	if len(echo) != 55 {
		t.Errorf("echo header %q has length %d, want 55", echo, len(echo))
	}
}

// TestTraceparentRejects: malformed headers mint nothing.
func TestTraceparentRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"00-short-b7ad6b7169203331-01",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // unknown version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero parent
		"00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01", // non-hex
		"00_0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331_01", // wrong separators
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted a malformed header", bad)
		}
	}
}

// TestMintQueryID: minted ids are non-zero and distinct.
func TestMintQueryID(t *testing.T) {
	a, b := MintQueryID(), MintQueryID()
	if a.IsZero() || b.IsZero() {
		t.Fatal("minted a zero query id")
	}
	if a.String() == b.String() {
		t.Fatalf("two minted ids collide: %s", a)
	}
	if a.ParentString() != "" {
		t.Errorf("minted id has an inbound parent: %q", a.ParentString())
	}
}

// TestContextPlumbing: the query's logger travels via context, and the
// fallback logger is the allocation-free discard.
func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if l := LoggerFrom(ctx); l != Discard {
		t.Errorf("empty context logger is not the discard fallback")
	}
	if LoggerFrom(ctx).Enabled(ctx, slog.LevelError) {
		t.Error("discard logger claims to be enabled")
	}

	id := MintQueryID()
	var buf bytes.Buffer
	lg := slog.New(slog.NewJSONHandler(&buf, nil)).With("query_id", id.String())
	ctx = WithLogger(ctx, lg)
	LoggerFrom(ctx).Info("hello")
	if !strings.Contains(buf.String(), id.String()) {
		t.Errorf("log record missing query_id: %s", buf.String())
	}

	allocs := testing.AllocsPerRun(100, func() {
		l := LoggerFrom(context.Background())
		if l.Enabled(context.Background(), slog.LevelDebug) {
			t.Fatal("discard enabled")
		}
	})
	if allocs > 0 {
		t.Errorf("disabled logging path allocates %.0f/op", allocs)
	}
}

// TestBuildSpans: request phases and trace steps become a parent-linked
// span tree under the query's root span, with deterministic child ids.
func TestBuildSpans(t *testing.T) {
	q, _ := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	start := time.Unix(1000, 0)
	tr := &trace.Trace{Backend: "compiled", WallNS: 5e6}
	tr.Add(trace.Step{Kind: trace.KindBind, Name: "lineitem", WallNS: 1e6})
	tr.Add(trace.Step{Kind: trace.KindFragment, Name: "sel_fused", WallNS: 4e6,
		Items: 100, Workers: 2, Morsels: 4, Fused: true, Stmts: []int{1, 2},
		Specialized: "batch", Tile: "7x146", AccWide: 12})
	tr.Finish(5 * time.Millisecond)

	rec := &QueryRecord{
		ID: q, SQL: "SELECT 1", Arrived: start, Wall: 10 * time.Millisecond,
		QueueWait: time.Millisecond, PlanLookup: time.Microsecond,
		Compile: 2 * time.Millisecond, Traces: []*trace.Trace{tr},
	}
	qs := BuildSpans(rec)
	if qs.QueryID != q.String() {
		t.Fatalf("span tree query id %q", qs.QueryID)
	}
	// root + admission.wait + plan + exec + 2 steps
	if len(qs.Spans) != 6 {
		t.Fatalf("got %d spans, want 6: %+v", len(qs.Spans), qs.Spans)
	}
	root := qs.Spans[0]
	if root.Name != "query" || root.ParentSpanID != "b7ad6b7169203331" || root.TraceID != q.String() {
		t.Errorf("bad root span: %+v", root)
	}
	if root.StartUnixNS != start.UnixNano() || root.EndUnixNS != start.Add(10*time.Millisecond).UnixNano() || root.Status != "" {
		t.Errorf("root span does not cover arrival to outcome: %+v", root)
	}
	byName := map[string]Span{}
	for _, s := range qs.Spans {
		byName[s.Name] = s
		if s.TraceID != q.String() {
			t.Errorf("span %s has trace id %q", s.Name, s.TraceID)
		}
		if s.SpanID == "" || s.EndUnixNS < s.StartUnixNS {
			t.Errorf("span %s malformed: %+v", s.Name, s)
		}
	}
	if byName["admission.wait"].ParentSpanID != root.SpanID {
		t.Errorf("admission.wait not a child of the root")
	}
	frag := byName["fragment sel_fused"]
	if frag.ParentSpanID != byName["exec"].SpanID {
		t.Errorf("fragment span not under exec phase: %+v", frag)
	}
	if frag.Attrs["workers"] != 2 || frag.Attrs["fused_stmts"] != 2 || frag.Attrs["specialized"] != "batch" || frag.Attrs["tile"] != "7x146" || frag.Attrs["acc"] != "12/12" {
		t.Errorf("fragment attrs lost: %+v", frag.Attrs)
	}
	// Steps are sequential: the fragment starts where the bind ended.
	bind := byName["bind lineitem"]
	if frag.StartUnixNS != bind.EndUnixNS {
		t.Errorf("fragment start %d != bind end %d", frag.StartUnixNS, bind.EndUnixNS)
	}

	// Determinism: rebuilding yields identical ids.
	qs2 := BuildSpans(rec)
	for i := range qs.Spans {
		if qs.Spans[i].SpanID != qs2.Spans[i].SpanID {
			t.Errorf("span %d id not deterministic: %q vs %q", i, qs.Spans[i].SpanID, qs2.Spans[i].SpanID)
		}
	}

	// A failed query's root span carries kind and message as its status.
	rec.Fail(500, "panic", errors.New("boom"))
	if got := BuildSpans(rec).Spans[0].Status; got != "panic: boom" {
		t.Errorf("failed root span status = %q", got)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for event-log tests.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestEventLogPolicy pins the sampling policy: errors, shed requests and
// slow queries always land; ordinary queries follow the rate (0 here, so
// never); and every accepted event is written by Close.
func TestEventLogPolicy(t *testing.T) {
	var buf syncBuffer
	l := NewEventLog(EventLogConfig{
		W: &buf, SampleRate: 0, SlowThreshold: 100 * time.Millisecond,
		Registry: metrics.NewRegistry(),
	})
	ok, failed, shed, slow, canceled := MintQueryID(), MintQueryID(), MintQueryID(), MintQueryID(), MintQueryID()
	l.Emit(&QueryRecord{ID: ok, Status: 200, Wall: time.Millisecond})                            // sampled out
	l.Emit(&QueryRecord{ID: failed, Status: 500, Error: "boom", Wall: time.Millisecond})         // error
	l.Emit(&QueryRecord{ID: shed, Status: 503, Kind: "shed-memory"})                             // shed
	l.Emit(&QueryRecord{ID: slow, Status: 200, Wall: 200 * time.Millisecond})                    // slow
	l.Emit(&QueryRecord{ID: canceled, Status: 499, Kind: "canceled", Error: "context canceled"}) // error
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Accepted() != 4 || l.Written() != 4 || l.Dropped() != 0 || l.SampledOut() != 1 {
		t.Fatalf("accounting: accepted=%d written=%d dropped=%d sampledOut=%d",
			l.Accepted(), l.Written(), l.Dropped(), l.SampledOut())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d JSONL lines, want 4:\n%s", len(lines), buf.String())
	}
	wantReason := map[string]string{failed.String(): "error", shed.String(): "shed", slow.String(): "slow", canceled.String(): "error"}
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if want := wantReason[e.QueryID]; e.Sampled != want {
			t.Errorf("event %s sampled=%q, want %q", e.QueryID, e.Sampled, want)
		}
		delete(wantReason, e.QueryID)
	}
	if len(wantReason) != 0 {
		t.Errorf("events missing from the log: %v", wantReason)
	}
	// Emit after Close is a silent no-op, not a panic or a block.
	l.Emit(&QueryRecord{ID: MintQueryID(), Status: 500, Error: "x"})
}

// TestEventLogSampling: rate 1.0 retains everything with reason random.
func TestEventLogSampling(t *testing.T) {
	var buf syncBuffer
	l := NewEventLog(EventLogConfig{W: &buf, SampleRate: 1.0, Registry: metrics.NewRegistry()})
	for i := 0; i < 50; i++ {
		l.Emit(&QueryRecord{ID: MintQueryID(), Status: 200, Wall: 1})
	}
	l.Close()
	if l.Written() != 50 {
		t.Fatalf("rate-1.0 log wrote %d of 50", l.Written())
	}
	if !strings.Contains(buf.String(), `"sampled":"random"`) {
		t.Errorf("missing random sample reason: %.200s", buf.String())
	}
}

// TestEventLogBackpressure: a stalled sink fills the buffer; Emit keeps
// returning immediately (drop counter, not a block), and once the sink
// recovers Close still writes everything that was accepted.
func TestEventLogBackpressure(t *testing.T) {
	release := make(chan struct{})
	gated := &gatedWriter{release: release}
	l := NewEventLog(EventLogConfig{
		W: gated, Buffer: 8, SampleRate: 1.0, Registry: metrics.NewRegistry(),
	})
	start := time.Now()
	const n = 100
	for i := 0; i < n; i++ {
		l.Emit(&QueryRecord{ID: MintQueryID(), Status: 500, Error: "x"})
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Emit blocked on a stalled sink: %v for %d emits", elapsed, n)
	}
	if l.Dropped() == 0 {
		t.Fatal("stalled sink dropped nothing — backpressure blocked instead")
	}
	if l.Accepted()+l.Dropped() != n {
		t.Fatalf("accounting leak: accepted=%d dropped=%d of %d", l.Accepted(), l.Dropped(), n)
	}
	close(release)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Written() != l.Accepted() {
		t.Fatalf("flush-on-quiesce lost events: written=%d accepted=%d", l.Written(), l.Accepted())
	}
}

// gatedWriter blocks writes until released, then passes them through.
type gatedWriter struct {
	release <-chan struct{}
	mu      sync.Mutex
	buf     bytes.Buffer
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	<-g.release
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}
