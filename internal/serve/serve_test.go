package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"voodoo/internal/diag"
	"voodoo/internal/exec"
	"voodoo/internal/faultinject"
	"voodoo/internal/metrics"
	"voodoo/internal/storage"
	"voodoo/internal/tpch"
)

var testCat = tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})

// freshCat returns a catalog over testCat's tables with a plan memo of its
// own, so a server on it compiles each statement's first request, as a
// newly started daemon does.
func freshCat() *storage.Catalog {
	cat := storage.NewCatalog()
	for _, name := range testCat.Tables() {
		cat.Add(testCat.Table(name))
	}
	return cat
}

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	cfg.Cat = freshCat()
	if cfg.Registry == nil {
		cfg.Registry = metrics.Default
	}
	srv := httptest.NewServer(New(cfg).Mux())
	t.Cleanup(srv.Close)
	return srv
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func postQuery(t *testing.T, base, sqlText string) (int, queryResponse, string) {
	t.Helper()
	resp, err := http.Post(base+"/query", "text/plain", strings.NewReader(sqlText))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var qr queryResponse
	if resp.StatusCode == 200 {
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("bad response JSON: %v\n%s", err, body)
		}
	}
	return resp.StatusCode, qr, string(body)
}

// TestServeConcurrentQueries is the acceptance scenario: concurrent
// TPC-H SQL traffic through the daemon, then a /metrics scrape showing
// the instrumentation moved.
func TestServeConcurrentQueries(t *testing.T) {
	srv := newTestServer(t, Config{MaxConcurrent: 2, Timeout: 30 * time.Second})

	queries := []string{
		`SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem
		   WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
		     AND l_discount BETWEEN 0.0499 AND 0.0701 AND l_quantity < 24`,
		`SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS q
		   FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`,
		`SELECT COUNT(*) AS n FROM lineitem WHERE l_shipmode IN ('AIR', 'RAIL')`,
	}
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan string, len(queries)*rounds)
	for r := 0; r < rounds; r++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				code, qr, body := postQuery(t, srv.URL, q)
				if code != 200 {
					errs <- fmt.Sprintf("status %d: %s", code, body)
					return
				}
				if len(qr.Rows) == 0 || qr.Stats.ExecNS <= 0 {
					errs <- fmt.Sprintf("empty result or missing stats: %s", body)
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// A prebuilt TPC-H query by number, including dictionary decoding.
	code, qr, body := postQuery(t, srv.URL, "")
	if code != 400 {
		t.Errorf("empty query: status %d, want 400: %s", code, body)
	}
	code, _ = getBody(t, srv.URL+"/query?q=6")
	if code != 200 {
		t.Errorf("TPC-H q=6: status %d", code)
	}
	code, bodyStr := getBody(t, srv.URL+"/query?sql="+
		"SELECT+l_returnflag,+COUNT(*)+AS+n+FROM+lineitem+GROUP+BY+l_returnflag")
	if code != 200 || !strings.Contains(bodyStr, `"l_returnflag": "A"`) {
		t.Errorf("dictionary column not decoded (status %d): %.300s", code, bodyStr)
	}
	_ = qr

	// The scrape: exposition format with the end-to-end instrumentation.
	code, m := getBody(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE voodoo_queries_total counter",
		"# TYPE voodoo_http_requests_total counter",
		`voodoo_http_requests_total{code="200"}`,
		"# TYPE voodoo_http_queue_seconds histogram",
		"voodoo_http_queue_seconds_bucket{le=\"+Inf\"}",
		"# TYPE voodoo_sql_compile_seconds histogram",
		"# TYPE voodoo_query_exec_seconds histogram",
		"# TYPE voodoo_query_wall_seconds histogram",
		"# TYPE voodoo_rows_returned_total counter",
		"# TYPE voodoo_active_queries gauge",
		"# TYPE voodoo_resource_exhausted_total counter",
		`voodoo_resource_exhausted_total{kind="bytes"}`,
		"# TYPE go_goroutines gauge",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServeLiveProgressAndCancel holds a query mid-fragment with a fault
// injection hook, watches it appear in /queries with live per-step
// progress, cancels it through the HTTP action, and finds it in the slow
// ring with its error. Must not run in parallel: faultinject hooks are
// process-global.
func TestServeLiveProgressAndCancel(t *testing.T) {
	srv := newTestServer(t, Config{MaxConcurrent: 2, Timeout: 30 * time.Second, SlowQueries: 4})

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	faultinject.With(t, faultinject.Hooks{Item: func(frag string, gid int) {
		once.Do(func() { close(entered) })
		<-release
	}})

	done := make(chan struct {
		code int
		body string
	}, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/query", "text/plain",
			strings.NewReader(`SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 50`))
		if err != nil {
			done <- struct {
				code int
				body string
			}{0, err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- struct {
			code int
			body string
		}{resp.StatusCode, string(b)}
	}()

	<-entered // the query is now blocked inside a fragment loop

	// The live view must show the in-flight query with progress: steps
	// already completed (input binds) and a current step name.
	var active []diag.QueryInfo
	deadlineAt := time.Now().Add(5 * time.Second)
	for {
		_, body := getBody(t, srv.URL+"/queries")
		var resp struct {
			Active []diag.QueryInfo `json:"active"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("bad /queries JSON: %v", err)
		}
		if len(resp.Active) == 1 && resp.Active[0].StepsDone > 0 {
			active = resp.Active
			break
		}
		if time.Now().After(deadlineAt) {
			t.Fatalf("in-flight query never showed progress: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	aq := active[0]
	if !strings.Contains(aq.SQL, "COUNT(*)") || aq.LastStep == "" || aq.ElapsedNS <= 0 {
		t.Errorf("bad live entry: %+v", aq)
	}

	// Cancel via the advertised action, then let the workers resume so
	// they hit their next cancellation checkpoint.
	resp, err := http.Post(srv.URL+fmt.Sprintf("/queries/cancel?id=%d", aq.ID), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	close(release)

	r := <-done
	if r.code != StatusClientClosedRequest {
		t.Fatalf("cancelled query: status %d, want %d: %s", r.code, StatusClientClosedRequest, r.body)
	}
	if !strings.Contains(r.body, `"kind": "canceled"`) {
		t.Errorf("error kind not canceled: %s", r.body)
	}

	// Gone from the active view, retained in the slow ring with its error
	// and full trace.
	_, body := getBody(t, srv.URL+"/queries")
	var after struct {
		Active []diag.QueryInfo `json:"active"`
		Slow   []diag.SlowQuery `json:"slow"`
	}
	if err := json.Unmarshal([]byte(body), &after); err != nil {
		t.Fatal(err)
	}
	if len(after.Active) != 0 {
		t.Errorf("cancelled query still active: %s", body)
	}
	foundSlow := false
	for _, sq := range after.Slow {
		if sq.ID == aq.ID && sq.Error != "" {
			foundSlow = true
		}
	}
	if !foundSlow {
		t.Errorf("cancelled query not in slow ring: %s", body)
	}
}

// TestServeGovernorLimits: a request over the memory budget fails with
// 429 and moves the by-kind degradation counter.
func TestServeGovernorLimits(t *testing.T) {
	reg := metrics.Default
	before := readExhausted(t, reg, `kind="bytes"`)
	srv := newTestServer(t, Config{Limits: exec.Limits{MaxBytes: 1024}, Timeout: 10 * time.Second})
	code, _, body := postQuery(t, srv.URL, `SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 50`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", code, body)
	}
	if !strings.Contains(body, `"kind": "resource"`) {
		t.Errorf("error kind not resource: %s", body)
	}
	if after := readExhausted(t, reg, `kind="bytes"`); after <= before {
		t.Errorf("voodoo_resource_exhausted_total{kind=bytes} did not move: %g -> %g", before, after)
	}
}

// readExhausted scrapes reg for the voodoo_resource_exhausted_total
// sample with the given label.
func readExhausted(t *testing.T, reg *metrics.Registry, label string) float64 {
	t.Helper()
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "voodoo_resource_exhausted_total{"+label+"}") {
			var v float64
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v)
			return v
		}
	}
	return 0
}

// TestServeIndex: the root page documents the surface.
func TestServeIndex(t *testing.T) {
	srv := newTestServer(t, Config{})
	code, body := getBody(t, srv.URL+"/")
	if code != 200 || !strings.Contains(body, "POST /query") {
		t.Errorf("index page wrong (status %d): %.200s", code, body)
	}
	if code, _ := getBody(t, srv.URL+"/nope"); code != 404 {
		t.Errorf("unknown path: status %d, want 404", code)
	}
}

// TestServeNonUniqueBuildKeyIs400: a join that builds on a repeated key is
// the client's mistake — a plan error with the fix in it, not a wrong answer
// and not a 500; the orientation that builds on the unique key serves.
func TestServeNonUniqueBuildKeyIs400(t *testing.T) {
	srv := newTestServer(t, Config{})
	code, _, body := postQuery(t, srv.URL, `SELECT c_mktsegment, COUNT(*) AS n FROM customer
		JOIN orders ON c_custkey = o_custkey GROUP BY c_mktsegment`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", code, body)
	}
	if !strings.Contains(body, `"kind": "plan"`) || !strings.Contains(body, "o_custkey") || !strings.Contains(body, "JOIN clause") {
		t.Errorf("error body does not say plan / o_custkey / the fix: %s", body)
	}
	code, qr, body := postQuery(t, srv.URL, `SELECT c_mktsegment, COUNT(*) AS n FROM orders
		JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment`)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", code, body)
	}
	var n float64
	for _, row := range qr.Rows {
		n += row["n"].(float64)
	}
	if want := float64(testCat.Table("orders").N); n != want {
		t.Errorf("orders JOIN customer counts %g rows, want %g", n, want)
	}
}
