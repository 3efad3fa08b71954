package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"voodoo/internal/compile"
	"voodoo/internal/diag"
	"voodoo/internal/faultinject"
	"voodoo/internal/metrics"
	"voodoo/internal/telemetry"
	"voodoo/internal/telemetry/slo"
)

// syncBuffer is a locked bytes.Buffer standing in for the event-log
// file.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// shared is what the views of one request have in common, normalised to
// one shape so they can be compared from a table. A view that does not
// carry a field leaves it at the record's value.
type shared struct {
	QueryID, SQL, Error                      string
	Queue, PlanLookup, Compile, Exec, Budget int64
	Cached                                   bool
}

// sharedOf is the reference every view of rec is compared to.
func sharedOf(rec *telemetry.QueryRecord) shared {
	return shared{
		QueryID: rec.ID.String(), SQL: rec.SQL, Error: rec.Error,
		Queue: rec.QueueWait.Nanoseconds(), PlanLookup: rec.PlanLookup.Nanoseconds(),
		Compile: rec.Compile.Nanoseconds(), Exec: rec.Exec.Nanoseconds(),
		Budget: rec.Deadline.Nanoseconds(), Cached: rec.Cached,
	}
}

// TestQueryIDCorrelation is the end-to-end correlation walk, and the
// property one record per query buys: for a successful, a failed and a
// shed request — each arriving with a W3C traceparent — the response
// (headers, stats block), the JSONL event, the /queries/slow entry and the
// /debug/spans tree are views of the same record, so every field two of
// them share agrees to the nanosecond. Must not run in parallel:
// faultinject hooks are process-global.
func TestQueryIDCorrelation(t *testing.T) {
	const parentSpan = "00f067aa0ba902b7"
	var buf syncBuffer
	events := telemetry.NewEventLog(telemetry.EventLogConfig{
		W: &buf, SampleRate: 1.0, Registry: testRegistry(t),
	})
	s := New(Config{
		Cat: freshCat(), Timeout: 30 * time.Second, Opt: compile.Options{Workers: 1},
		Registry: testRegistry(t), Events: events, MemHighWater: 1,
		SLO: []slo.Objective{{Route: "query", Latency: 10 * time.Second, Target: 0.99}},
	})
	heap := int64(0)
	s.memShed.sample = func() int64 { return heap }
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()

	cases := []struct {
		name    string
		traceID string
		arm     func() // provokes the outcome
		status  int
		kind    string
		ran     bool // reached execution: has a slow-ring entry and an exec span
	}{
		{name: "ok", traceID: "4bf92f3577b34da6a3ce929d0e0e4736", arm: func() {}, status: 200, ran: true},
		{name: "failed", traceID: "4bf92f3577b34da6a3ce929d0e0e4737", status: 500, kind: "panic", ran: true,
			arm: func() {
				faultinject.Set(faultinject.Hooks{FragmentStart: func(string) { panic("injected") }})
			}},
		{name: "shed", traceID: "4bf92f3577b34da6a3ce929d0e0e4738", status: 503, kind: "shed-memory",
			arm: func() { heap = 2; s.memShed.lastAt.Store(0) }},
	}
	for _, c := range cases {
		c.arm()
		req, _ := http.NewRequest("POST", srv.URL+"/query",
			strings.NewReader("SELECT COUNT(*) AS n FROM lineitem"))
		req.Header.Set("traceparent", "00-"+c.traceID+"-"+parentSpan+"-01")
		resp, err := http.DefaultClient.Do(req)
		faultinject.Clear()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d: %s", c.name, resp.StatusCode, c.status, body)
		}

		// Response headers echo the identity: the inbound trace id is
		// kept, the server's own span replaces the caller's.
		if got := resp.Header.Get("X-Voodoo-Query-Id"); got != c.traceID {
			t.Errorf("%s: X-Voodoo-Query-Id = %q, want %q", c.name, got, c.traceID)
		}
		tp := resp.Header.Get("Traceparent")
		if !strings.HasPrefix(tp, "00-"+c.traceID+"-") || strings.Contains(tp, parentSpan) {
			t.Errorf("%s: response traceparent %q should keep trace id %s with a fresh span", c.name, tp, c.traceID)
		}

		// The record itself is the reference every view is compared to.
		rec, ok := s.QueryRegistry().Lookup(c.traceID)
		if !ok {
			t.Fatalf("%s: no retained record", c.name)
		}
		want := sharedOf(rec)
		if want.QueryID != c.traceID || rec.Status != c.status || rec.Kind != c.kind || rec.Wall <= 0 || (rec.Seq != 0) != c.ran {
			t.Errorf("%s: record outcome wrong: status %d kind %q wall %v seq %d", c.name, rec.Status, rec.Kind, rec.Wall, rec.Seq)
		}
		if c.ran && (want.Queue <= 0 || want.Exec <= 0 || want.Budget <= 0 || want.PlanLookup <= 0) {
			t.Errorf("%s: an executed request left phases unset: %+v", c.name, want)
		}
		if c.name == "shed" && resp.Header.Get("Retry-After") == "" {
			t.Error("shed response missing Retry-After")
		}
		views := map[string]shared{}

		// The response: stats block on success, kind and message otherwise.
		if c.status == 200 {
			var qr queryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatalf("bad response: %v", err)
			}
			st := qr.Stats
			if st.Rows != 1 || rec.Rows != 1 {
				t.Errorf("%s: rows: stats %d, record %d, want 1", c.name, st.Rows, rec.Rows)
			}
			views["stats"] = shared{QueryID: st.QueryID, SQL: want.SQL, Queue: st.QueueNS,
				PlanLookup: st.PlanLookupNS, Compile: st.CompileNS, Exec: st.ExecNS,
				Budget: want.Budget, Cached: st.Cached}
		} else {
			var qe queryError
			if err := json.Unmarshal(body, &qe); err != nil {
				t.Fatalf("bad error response: %v", err)
			}
			if qe.Kind != c.kind || qe.Error != rec.Error || qe.Error == "" {
				t.Errorf("%s: error body %+v does not match the record (%q: %q)", c.name, qe, rec.Kind, rec.Error)
			}
		}

		// The /queries/slow entry (executed requests only).
		var slow *diag.SlowQuery
		for _, sq := range s.QueryRegistry().Slow() {
			if sq.QueryID == c.traceID {
				slow = &sq
			}
		}
		if (slow != nil) != c.ran {
			t.Fatalf("%s: slow-ring entry present = %v, want %v", c.name, slow != nil, c.ran)
		}
		if slow != nil {
			// A failed run delivers no trace; a finished one keeps all of its.
			if slow.ID != rec.Seq || len(slow.Traces) != len(rec.Traces) || (len(slow.Traces) > 0) != (c.status == 200) {
				t.Errorf("%s: slow entry lost its cancel handle or traces: %+v", c.name, slow)
			}
			views["slow"] = shared{QueryID: slow.QueryID, SQL: slow.SQL, Error: slow.Error,
				Queue: slow.QueueNS, PlanLookup: slow.PlanLookupNS, Compile: slow.CompileNS,
				Exec: slow.WallNS, Budget: slow.DeadlineNS, Cached: slow.CachedPlan}
		}

		// The /debug/spans tree: root span parented on the caller's span,
		// with admission/plan/exec children under it.
		code, spansBody := getBody(t, srv.URL+"/debug/spans?query_id="+c.traceID)
		if code != 200 {
			t.Fatalf("%s: /debug/spans status %d: %s", c.name, code, spansBody)
		}
		var qs telemetry.QuerySpans
		if err := json.Unmarshal([]byte(spansBody), &qs); err != nil {
			t.Fatal(err)
		}
		root := qs.Spans[0]
		if root.Name != "query" || root.TraceID != c.traceID || root.ParentSpanID != parentSpan ||
			root.StartUnixNS != rec.Arrived.UnixNano() || root.EndUnixNS-root.StartUnixNS != rec.Wall.Nanoseconds() {
			t.Errorf("%s: root span not linked to the caller or the record: %+v", c.name, root)
		}
		sv := shared{QueryID: qs.QueryID, SQL: qs.SQL, Error: want.Error, Budget: want.Budget,
			Cached: root.Attrs["cached_plan"].(bool)}
		if c.kind != "" && root.Status != c.kind+": "+rec.Error {
			t.Errorf("%s: root span status %q", c.name, root.Status)
		}
		var sawExec bool
		for _, sp := range qs.Spans[1:] {
			if sp.ParentSpanID == "" {
				t.Errorf("%s: orphan span %+v", c.name, sp)
			}
			switch sp.Name {
			case "admission.wait":
				sv.Queue = sp.EndUnixNS - sp.StartUnixNS
			case "plan":
				sv.PlanLookup = int64(sp.Attrs["cache_lookup_ns"].(float64))
				sv.Compile = int64(sp.Attrs["compile_ns"].(float64))
			case "exec":
				sawExec = true
			}
		}
		sv.Exec = want.Exec // exec spans carry the engine's own wall, not the request's
		if sawExec != (c.name == "ok") {
			t.Errorf("%s: exec phase span present = %v: %s", c.name, sawExec, spansBody)
		}
		views["spans"] = sv

		for name, got := range views {
			if got != want {
				t.Errorf("%s: the %s view disagrees with the record:\n got %+v\nwant %+v", c.name, name, got, want)
			}
		}
	}

	// The JSONL event log has one line per request (rate 1.0), in order.
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(cases) {
		t.Fatalf("%d event lines for %d requests:\n%s", len(lines), len(cases), buf.String())
	}
	for i, c := range cases {
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(lines[i]), &ev); err != nil {
			t.Fatalf("bad event line: %v\n%s", err, lines[i])
		}
		rec, _ := s.QueryRegistry().Lookup(c.traceID)
		want := sharedOf(rec)
		got := shared{QueryID: ev.QueryID, SQL: ev.SQL, Error: ev.Error, Queue: ev.QueueNS,
			PlanLookup: ev.PlanLookupNS, Compile: ev.CompileNS, Exec: ev.ExecNS,
			Budget: ev.DeadlineNS, Cached: ev.Cached}
		if got != want {
			t.Errorf("%s: the JSONL view disagrees with the record:\n got %+v\nwant %+v", c.name, got, want)
		}
		if ev.Status != c.status || ev.Kind != c.kind || ev.WallNS != rec.Wall.Nanoseconds() ||
			!ev.Time.Equal(rec.Arrived) || ev.Rows != rec.Rows {
			t.Errorf("%s: event outcome not the record's: %+v", c.name, ev)
		}
	}

	// /healthz reports build identity and the SLO budget, which saw all
	// three requests: a 5xx burns budget at any latency.
	heap = 0
	s.memShed.lastAt.Store(0)
	code, hz := getBody(t, srv.URL+"/healthz")
	if code != 200 {
		t.Fatalf("/healthz status %d", code)
	}
	if !strings.Contains(hz, `"go_version"`) || !strings.Contains(hz, `"burn_rate"`) {
		t.Errorf("/healthz missing build or SLO state: %s", hz)
	}
	if !strings.Contains(hz, `"window_good": 1`) || !strings.Contains(hz, `"window_bad": 2`) {
		t.Errorf("/healthz SLO did not observe one good and two bad requests: %s", hz)
	}
}

// TestSharedTraceID: two requests under one traceparent trace id — the
// normal shape of a distributed trace — must not orphan each other's
// spans. After the older one is evicted from the most-recent ring, the
// id still resolves, to the newer request.
func TestSharedTraceID(t *testing.T) {
	const traceID = "0af7651916cd43dd8448eb211c80319c"
	s := New(Config{Cat: freshCat(), Registry: testRegistry(t), SpanRetain: 4})
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()
	post := func(traceparent string) {
		t.Helper()
		req, _ := http.NewRequest("POST", srv.URL+"/query", strings.NewReader("SELECT COUNT(*) AS n FROM nation"))
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	post("00-" + traceID + "-00000000000000a1-01")
	post("00-" + traceID + "-00000000000000a2-01")
	for i := 0; i < 3; i++ { // the first of these evicts the older sharer
		post("")
	}

	code, body := getBody(t, srv.URL+"/debug/spans?query_id="+traceID)
	if code != 200 {
		t.Fatalf("shared trace id no longer resolves after its older request was evicted: %d %s", code, body)
	}
	var qs telemetry.QuerySpans
	if err := json.Unmarshal([]byte(body), &qs); err != nil {
		t.Fatal(err)
	}
	if got := qs.Spans[0].ParentSpanID; got != "00000000000000a2" {
		t.Errorf("resolved to the request under parent span %q, want the newer one (…a2)", got)
	}
	_, index := getBody(t, srv.URL+"/debug/spans")
	var idx struct {
		Retained int      `json:"retained"`
		IDs      []string `json:"query_ids"`
	}
	if err := json.Unmarshal([]byte(index), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Retained != 4 || len(idx.IDs) != 4 || idx.IDs[3] != traceID {
		t.Errorf("index after eviction = %+v, want 4 ids with the shared one oldest", idx)
	}
	for _, id := range idx.IDs {
		if code, _ := getBody(t, srv.URL+"/debug/spans?query_id="+id); code != 200 {
			t.Errorf("index lists %s but the lookup answers %d", id, code)
		}
	}
}

// probeWriter records, at the moment the response body is written, what
// the server's drain logic would see.
type probeWriter struct {
	*httptest.ResponseRecorder
	onWrite func()
}

func (p *probeWriter) Write(b []byte) (int, error) {
	p.onWrite()
	return p.ResponseRecorder.Write(b)
}

// TestFinishRunsInsideTheRequest: the one finish is deferred, so its place
// among the other deferred releases is a contract. When the client sees
// the response, the request is still counted in flight (Shutdown must not
// declare the server idle — and the daemon close the event log — before
// the event is emitted), still holds its execution slot, and has already
// left the registry and reached the event log.
func TestFinishRunsInsideTheRequest(t *testing.T) {
	var buf syncBuffer
	events := telemetry.NewEventLog(telemetry.EventLogConfig{W: &buf, SampleRate: 1.0, Registry: testRegistry(t)})
	defer events.Close()
	s := New(Config{Cat: freshCat(), Registry: testRegistry(t), Events: events})
	for _, sqlText := range []string{"SELECT COUNT(*) AS n FROM nation", "SELECT bogus FROM nope"} {
		before, wrote := events.Accepted(), false
		w := &probeWriter{ResponseRecorder: httptest.NewRecorder(), onWrite: func() {
			wrote = true
			if n := s.inflight.Load(); n != 1 {
				t.Errorf("%q: inflight = %d while the response is written, want 1", sqlText, n)
			}
			if n := len(s.sem); n != 1 {
				t.Errorf("%q: %d execution slots held while the response is written, want 1", sqlText, n)
			}
			if n := s.qreg.ActiveCount(); n != 0 {
				t.Errorf("%q: still active in the registry while the response is written", sqlText)
			}
			if got := events.Accepted() - before; got != 1 {
				t.Errorf("%q: %d events accepted before the response is written, want 1", sqlText, got)
			}
		}}
		s.handleQuery(w, httptest.NewRequest("POST", "/query", strings.NewReader(sqlText)))
		if !wrote || s.inflight.Load() != 0 || len(s.sem) != 0 {
			t.Errorf("%q: after the handler: wrote=%v inflight=%d slots=%d", sqlText, wrote, s.inflight.Load(), len(s.sem))
		}
	}
}

// TestScrapeWhileServing is the -race gate of the shared record: scrapers
// render /queries, /queries/slow and every retained /debug/spans tree
// while the serving goroutines are still filling and publishing the very
// records those views are rendered from.
func TestScrapeWhileServing(t *testing.T) {
	s := New(Config{Cat: freshCat(), Registry: testRegistry(t), SpanRetain: 8, SlowQueries: 4})
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 3; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/queries", "/queries/slow"} {
					if code, body := getBody(t, srv.URL+path); code != 200 {
						t.Errorf("%s: status %d: %s", path, code, body)
					}
				}
				_, index := getBody(t, srv.URL+"/debug/spans")
				var idx struct {
					IDs []string `json:"query_ids"`
				}
				if err := json.Unmarshal([]byte(index), &idx); err != nil {
					t.Errorf("bad /debug/spans index: %v", err)
				}
				for _, id := range idx.IDs {
					// 404 is fine: the ring may have moved on since the index.
					if code, body := getBody(t, srv.URL+"/debug/spans?query_id="+id); code != 200 && code != 404 {
						t.Errorf("/debug/spans?query_id=%s: status %d: %s", id, code, body)
					}
				}
			}
		}()
	}

	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for i := 0; i < 10; i++ {
				sqlText, want := "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 50", 200
				if (i+c)%3 == 0 {
					sqlText, want = "SELECT bogus FROM nope", 400
				}
				resp, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader(sqlText))
				if err != nil {
					t.Errorf("POST /query: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != want {
					t.Errorf("%q: status %d, want %d", sqlText, resp.StatusCode, want)
				}
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	scrapers.Wait()
	if n := s.QueryRegistry().ActiveCount(); n != 0 {
		t.Errorf("%d queries stuck in the registry", n)
	}
}

// TestMintedQueryID: a request without a traceparent gets a minted id
// that still correlates across the sinks.
func TestMintedQueryID(t *testing.T) {
	s := New(Config{Cat: freshCat(), Registry: testRegistry(t)})
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/query", "text/plain",
		strings.NewReader("SELECT COUNT(*) AS n FROM lineitem"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	id := resp.Header.Get("X-Voodoo-Query-Id")
	if len(id) != 32 || id == strings.Repeat("0", 32) {
		t.Fatalf("minted id %q not a 32-hex trace id", id)
	}
	if code, _ := getBody(t, srv.URL+"/debug/spans?query_id="+id); code != 200 {
		t.Errorf("/debug/spans lookup by minted id: status %d", code)
	}
	if slow := s.QueryRegistry().Slow(); len(slow) == 0 || slow[0].QueryID != id {
		t.Errorf("slow ring id mismatch")
	}
	// A refused request keeps its span tree without a slow-ring entry, and
	// with retention off the endpoint is not mounted at all.
	off := httptest.NewServer(New(Config{Cat: freshCat(), Registry: testRegistry(t), SpanRetain: -1}).Mux())
	defer off.Close()
	if code, _ := getBody(t, off.URL+"/debug/spans"); code != http.StatusNotFound {
		t.Errorf("/debug/spans with SpanRetain -1: status %d, want 404", code)
	}
}

// TestUnsampledNoWrite: with sampling off, a successful query leaves no
// JSONL write behind — the sink counts it as sampled out and the buffer
// stays empty.
func TestUnsampledNoWrite(t *testing.T) {
	var buf syncBuffer
	events := telemetry.NewEventLog(telemetry.EventLogConfig{
		W: &buf, SampleRate: 0, Registry: testRegistry(t),
	})
	s := New(Config{Cat: freshCat(), Registry: testRegistry(t), Events: events})
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()

	if code, _, body := postQuery(t, srv.URL, "SELECT COUNT(*) AS n FROM lineitem"); code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "" {
		t.Errorf("unsampled query wrote an event: %s", got)
	}
	if events.SampledOut() != 1 || events.Accepted() != 0 {
		t.Errorf("sampling accounting off: sampledOut=%d accepted=%d",
			events.SampledOut(), events.Accepted())
	}

	// An error is retained regardless of the rate.
	if code, _, _ := postQuery(t, srv.URL, "SELECT bogus FROM nope"); code == 200 {
		t.Fatal("bogus query succeeded")
	}
}

// testRegistry returns a fresh private registry per call so telemetry
// tests don't collide on metric names in metrics.Default.
func testRegistry(t *testing.T) *metrics.Registry {
	t.Helper()
	return metrics.NewRegistry()
}
