package diag

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"voodoo/internal/metrics"
	"voodoo/internal/telemetry"
	"voodoo/internal/trace"
)

// get fetches a URL and returns status + body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestDiagEndpointsSmoke drives every diagnostics endpoint through a real
// HTTP round trip: metrics, pprof, expvar, health, and the query views.
func TestDiagEndpointsSmoke(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("smoke_total", "A counter for the smoke test.").Add(7)
	qr := NewQueryRegistry(4, 0)
	srv := httptest.NewServer(NewMux(reg, qr, nil))
	defer srv.Close()

	t.Run("metrics", func(t *testing.T) {
		code, body := get(t, srv.URL+"/metrics")
		if code != 200 {
			t.Fatalf("status %d", code)
		}
		for _, want := range []string{
			"# HELP smoke_total A counter for the smoke test.",
			"# TYPE smoke_total counter",
			"smoke_total 7",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("missing %q in:\n%s", want, body)
			}
		}
	})

	t.Run("healthz", func(t *testing.T) {
		code, body := get(t, srv.URL+"/healthz")
		if code != 200 || strings.TrimSpace(body) != "ok" {
			t.Errorf("got %d %q", code, body)
		}
	})

	t.Run("expvar", func(t *testing.T) {
		code, body := get(t, srv.URL+"/debug/vars")
		if code != 200 {
			t.Fatalf("status %d", code)
		}
		// The "voodoo" map is still published (package trace is linked
		// into this test binary), with its eight historical keys.
		var vars struct {
			Voodoo map[string]int64 `json:"voodoo"`
		}
		if err := json.Unmarshal([]byte(body), &vars); err != nil {
			t.Fatalf("bad /debug/vars JSON: %v", err)
		}
		for _, k := range []string{"queries", "fragments", "traced_queries", "items",
			"bytes_allocated", "bytes_materialized", "fold_runs", "scatter_items"} {
			if _, ok := vars.Voodoo[k]; !ok {
				t.Errorf("expvar voodoo map lacks %q: %v", k, vars.Voodoo)
			}
		}
	})

	t.Run("pprof", func(t *testing.T) {
		for _, p := range []string{
			"/debug/pprof/",
			"/debug/pprof/cmdline",
			"/debug/pprof/goroutine?debug=1",
			"/debug/pprof/heap?debug=1",
		} {
			if code, _ := get(t, srv.URL+p); code != 200 {
				t.Errorf("%s: status %d", p, code)
			}
		}
	})

	t.Run("queries-empty", func(t *testing.T) {
		code, body := get(t, srv.URL+"/queries")
		if code != 200 {
			t.Fatalf("status %d", code)
		}
		var resp struct {
			Active []QueryInfo `json:"active"`
			Slow   []SlowQuery `json:"slow"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, body)
		}
		if len(resp.Active) != 0 || len(resp.Slow) != 0 {
			t.Errorf("expected empty registry, got %s", body)
		}
	})

	t.Run("queries-live", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		q := &telemetry.QueryRecord{ID: telemetry.MintQueryID(), SQL: "SELECT COUNT(*) FROM lineitem", Cancel: cancel}
		qr.Begin(q)
		q.Observe(trace.Step{Kind: trace.KindFragment, Name: "scan_0", Items: 42, MaterializedBytes: 336})

		code, body := get(t, srv.URL+"/queries")
		if code != 200 {
			t.Fatalf("status %d", code)
		}
		var resp struct {
			Active []QueryInfo `json:"active"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		if len(resp.Active) != 1 || resp.Active[0].LastStep != "fragment scan_0" ||
			resp.Active[0].Items != 42 {
			t.Fatalf("live view wrong: %s", body)
		}

		// Cancel through the HTTP action, as an operator would.
		resp2, err := http.Post(srv.URL+fmt.Sprintf("/queries/cancel?id=%d", q.Seq), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if resp2.StatusCode != 200 {
			t.Fatalf("cancel status %d", resp2.StatusCode)
		}
		select {
		case <-ctx.Done():
		default:
			t.Errorf("HTTP cancel did not fire the context")
		}
		q.Traces = []*trace.Trace{{Backend: "compiled", Query: "SELECT COUNT(*) FROM lineitem"}}
		q.Fail(499, "canceled", ctx.Err())
		qr.Finish(q)

		// The finished query's span tree is rendered on read, by query id.
		code, body = get(t, srv.URL+"/debug/spans?query_id="+q.ID.String())
		if code != 200 || !strings.Contains(body, `"status": "canceled: context canceled"`) {
			t.Errorf("/debug/spans of the finished query: %d %s", code, body)
		}
		if code, body := get(t, srv.URL+"/debug/spans"); code != 200 || !strings.Contains(body, q.ID.String()) {
			t.Errorf("/debug/spans index: %d %s", code, body)
		}
		if code, _ := get(t, srv.URL+"/debug/spans?query_id=nope"); code != http.StatusNotFound {
			t.Errorf("/debug/spans of an unknown id: status %d, want 404", code)
		}
	})

	t.Run("queries-slow", func(t *testing.T) {
		code, body := get(t, srv.URL+"/queries/slow")
		if code != 200 {
			t.Fatalf("status %d", code)
		}
		var slow []SlowQuery
		if err := json.Unmarshal([]byte(body), &slow); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		if len(slow) != 1 || len(slow[0].Traces) != 1 || slow[0].Error == "" {
			t.Errorf("slow view lacks the finished query's trace: %s", body)
		}
	})

	t.Run("cancel-errors", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/queries/cancel", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("missing id: status %d, want 400", resp.StatusCode)
		}
		resp, err = http.Post(srv.URL+"/queries/cancel?id=12345", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
		}
	})
}

// TestServeBindsEphemeral: the background Serve helper binds :0, reports
// the real address and serves /metrics until closed.
func TestServeBindsEphemeral(t *testing.T) {
	s, err := Serve("127.0.0.1:0", metrics.NewRegistry(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code, _ := get(t, "http://"+s.Addr+"/metrics"); code != 200 {
		t.Errorf("metrics status %d", code)
	}
	if code, _ := get(t, "http://"+s.Addr+"/healthz"); code != 200 {
		t.Errorf("healthz status %d", code)
	}
}
