package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"voodoo/internal/faultinject"
	"voodoo/internal/telemetry"
)

// keys renders the sorted key set of a JSON object.
func keys(t *testing.T, obj any) string {
	t.Helper()
	m, ok := obj.(map[string]any)
	if !ok {
		t.Fatalf("not a JSON object: %#v", obj)
	}
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, " ")
}

func decode(t *testing.T, body string) any {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	return v
}

// TestWireShapes pins the key sets — names and omitempty rules — of every
// per-request shape the daemon puts on the wire: the response stats block,
// the JSONL event line of a success and of a failure, a /queries active
// entry, a /queries/slow entry, and a /debug/spans tree. It talks to the
// server through HTTP and the event-log writer only, so the same file
// passes against any implementation that keeps the wire contract. Must not
// run in parallel: faultinject hooks are process-global.
func TestWireShapes(t *testing.T) {
	var buf syncBuffer
	events := telemetry.NewEventLog(telemetry.EventLogConfig{W: &buf, SampleRate: 1.0, Registry: testRegistry(t)})
	s := New(Config{Cat: freshCat(), Timeout: 30 * time.Second, Registry: testRegistry(t), Events: events})
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()

	// Hold one query mid-fragment to read its live /queries entry.
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	faultinject.With(t, faultinject.Hooks{Item: func(string, int) {
		once.Do(func() { close(entered) })
		<-release
	}})
	type result struct {
		code int
		hdr  http.Header
		body string
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/query", "text/plain",
			strings.NewReader(`SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 50 AND l_discount > 0.01 AND l_tax > 0.01`))
		if err != nil {
			done <- result{body: err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, resp.Header, string(b)}
	}()
	<-entered
	_, live := getBody(t, srv.URL+"/queries")
	close(release)
	r := <-done
	if r.code != 200 {
		t.Fatalf("held query: status %d: %s", r.code, r.body)
	}
	id := r.hdr.Get("X-Voodoo-Query-Id")

	active := decode(t, live).(map[string]any)["active"].([]any)
	if len(active) != 1 {
		t.Fatalf("want one active query: %s", live)
	}
	if got, want := keys(t, active[0]), "cached_plan cancel compile_ns deadline_ns elapsed_ns id items last_step materialized_bytes plan_lookup_ns query_id queue_ns sql started_at steps_done"; got != want {
		t.Errorf("/queries active entry keys:\n got %s\nwant %s", got, want)
	}

	resp := decode(t, r.body).(map[string]any)
	if got, want := keys(t, resp), "cols rows stats"; got != want {
		t.Errorf("response keys: got %s, want %s", got, want)
	}
	if got, want := keys(t, resp["stats"]), "cached compile_ns exec_ns plan_lookup_ns query_id queue_ns rows"; got != want {
		t.Errorf("stats keys:\n got %s\nwant %s", got, want)
	}

	// A failure, for the error-side omitempty rules.
	if code, _, body := postQuery(t, srv.URL, "SELECT bogus FROM nope"); code != 400 {
		t.Fatalf("bogus query: status %d: %s", code, body)
	} else if got, want := keys(t, decode(t, body)), "error kind"; got != want {
		t.Errorf("error body keys: got %s, want %s", got, want)
	}

	_, slowBody := getBody(t, srv.URL+"/queries/slow")
	slow := decode(t, slowBody).([]any)
	if len(slow) != 1 {
		t.Fatalf("want one slow entry (the failed request never executed): %s", slowBody)
	}
	if got, want := keys(t, slow[0]), "cached_plan compile_ns deadline_ns id items materialized_bytes plan_lookup_ns query_id queue_ns sql started_at traces wall_ns"; got != want {
		t.Errorf("/queries/slow entry keys:\n got %s\nwant %s", got, want)
	}
	// Its filter fold applies the first two of its three conjuncts early,
	// and says so in its trace step.
	var early []any
	for _, st := range slow[0].(map[string]any)["traces"].([]any)[0].(map[string]any)["steps"].([]any) {
		if step := st.(map[string]any); strings.HasPrefix(step["name"].(string), "ffold_") {
			early = append(early, step["early"])
		}
	}
	if len(early) != 1 || early[0] != 2.0 {
		t.Errorf("filter-fold steps' early points: got %v, want [2]", early)
	}
	// /queries lists the same entry as a summary: no traces.
	_, list := getBody(t, srv.URL+"/queries")
	if got, want := keys(t, decode(t, list).(map[string]any)["slow"].([]any)[0]), "cached_plan compile_ns deadline_ns id items materialized_bytes plan_lookup_ns query_id queue_ns sql started_at wall_ns"; got != want {
		t.Errorf("/queries slow summary keys:\n got %s\nwant %s", got, want)
	}

	code, spansBody := getBody(t, srv.URL+"/debug/spans?query_id="+id)
	if code != 200 {
		t.Fatalf("/debug/spans: status %d: %s", code, spansBody)
	}
	tree := decode(t, spansBody).(map[string]any)
	if got, want := keys(t, tree), "query_id spans sql"; got != want {
		t.Errorf("/debug/spans keys: got %s, want %s", got, want)
	}
	wantSpan := map[string][2]string{ // span name → span keys, attrs keys
		"query":          {"attrs end_unix_ns name span_id start_unix_ns trace_id", "cached_plan sql"},
		"admission.wait": {"end_unix_ns name parent_span_id span_id start_unix_ns trace_id", ""},
		"plan":           {"attrs end_unix_ns name parent_span_id span_id start_unix_ns trace_id", "cache_lookup_ns cached compile_ns"},
		"exec":           {"attrs end_unix_ns name parent_span_id span_id start_unix_ns trace_id", "alloc_bytes backend bulk_steps fragments items materialized_bytes"},
	}
	steps := 0
	for _, sp := range tree["spans"].([]any) {
		span := sp.(map[string]any)
		want, ok := wantSpan[span["name"].(string)]
		if !ok {
			steps++ // a plan step span; its attrs depend on the step kind
			attrs := span["attrs"].(map[string]any)
			if _, ok := attrs["kind"]; !ok {
				t.Errorf("step span without a kind attr: %v", span)
			}
			// The held query runs under a fault hook, which leaves its
			// fragments on the batch tier.
			if attrs["kind"] == "fragment" && attrs["specialized"] != "batch" {
				t.Errorf("fragment step span ran %v under a fault hook, want batch: %v", attrs["specialized"], span)
			}
			continue
		}
		delete(wantSpan, span["name"].(string))
		if got := keys(t, span); got != want[0] {
			t.Errorf("span %s keys:\n got %s\nwant %s", span["name"], got, want[0])
		}
		if want[1] != "" {
			if got := keys(t, span["attrs"]); got != want[1] {
				t.Errorf("span %s attrs:\n got %s\nwant %s", span["name"], got, want[1])
			}
		}
	}
	if len(wantSpan) != 0 || steps == 0 {
		t.Errorf("span tree lacks %v (and has %d step spans): %s", wantSpan, steps, spansBody)
	}
	_, index := getBody(t, srv.URL+"/debug/spans")
	if got, want := keys(t, decode(t, index)), "query_ids retained"; got != want {
		t.Errorf("/debug/spans index keys: got %s, want %s", got, want)
	}

	// The JSONL lines: the success, then the failure.
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want two event lines:\n%s", buf.String())
	}
	if got, want := keys(t, decode(t, lines[0])), "compile_ns deadline_ns exec_ns plan_lookup_ns query_id queue_ns rows sampled sql status time wall_ns"; got != want {
		t.Errorf("success event keys:\n got %s\nwant %s", got, want)
	}
	if got, want := keys(t, decode(t, lines[1])), "deadline_ns error kind query_id queue_ns sampled sql status time wall_ns"; got != want {
		t.Errorf("failure event keys:\n got %s\nwant %s", got, want)
	}
}
