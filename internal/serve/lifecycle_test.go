package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"voodoo/internal/faultinject"
	"voodoo/internal/metrics"
	"voodoo/internal/storage"
	"voodoo/internal/tpch"
)

// newLifecycleServer builds a Server plus its httptest frontend, exposing
// the *Server for white-box lifecycle poking.
func newLifecycleServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Cat == nil {
		cfg.Cat = freshCat()
	}
	s := New(cfg)
	srv := httptest.NewServer(s.Mux())
	t.Cleanup(srv.Close)
	return s, srv
}

// TestCatalogSwapUnderLoad: a hot reload while SQL clients run. Every
// response is correct on either side of the swap, and the replaced
// catalog, whose memo holds the plans prepared against it, is collected
// once the requests that pinned it are done.
func TestCatalogSwapUnderLoad(t *testing.T) {
	stmts := []string{
		steadySQL,
		"SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey",
		"SELECT SUM(l_extendedprice) AS rev FROM lineitem WHERE l_quantity < 24",
	}
	s, srv, old := swapServer(t)
	// rows answers q without failing the test, so clients can call it.
	rows := func(q string) (string, error) {
		resp, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader(q))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		var r queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil || resp.StatusCode != 200 {
			return "", fmt.Errorf("%s: status %d, %v", q, resp.StatusCode, err)
		}
		return fmt.Sprint(r.Rows), nil
	}
	want := make([]string, len(stmts))
	for i, q := range stmts {
		var err error
		if want[i], err = rows(q); err != nil {
			t.Fatal(err)
		}
	}

	var done atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := i % len(stmts)
				if got, err := rows(stmts[q]); err != nil || got != want[q] {
					t.Errorf("%s: rows %s, %v; want %s", stmts[q], got, err, want[q])
					return
				}
				done.Add(1)
			}
		}()
	}
	waitFor := func(n int64) {
		for deadline := time.Now().Add(30 * time.Second); done.Load() < n && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	// Same tables, new catalog identity: the answers must not move.
	next := freshCat()
	waitFor(20)
	s.SwapCatalog(next)
	waitFor(done.Load() + 20)
	close(stop)
	wg.Wait()

	if got := s.Catalog(); got != next {
		t.Fatal("Catalog() did not swap")
	}
	s.SwapCatalog(next) // the same catalog again is no reload
	if n := s.mReloads.Value(); n != 1 {
		t.Fatalf("reload counter = %d, want 1", n)
	}
	for i := 0; i < 5 && old.Value() != nil; i++ {
		runtime.GC()
	}
	if old.Value() != nil {
		t.Fatal("the replaced catalog and its plans were not collected")
	}
}

// swapServer starts a server on a catalog of its own and returns a weak
// pointer to that catalog, so the server holds the only strong one.
func swapServer(t *testing.T) (*Server, *httptest.Server, weak.Pointer[storage.Catalog]) {
	cat := freshCat()
	s, srv := newLifecycleServer(t, Config{Cat: cat, Registry: metrics.NewRegistry()})
	return s, srv, weak.Make(cat)
}

// TestDrainingRefusesNewQueries: after StartDraining, new queries answer
// 503 shed-draining with a Retry-After, and /healthz flips to 503
// "draining".
func TestDrainingRefusesNewQueries(t *testing.T) {
	s, srv := newLifecycleServer(t, Config{})
	s.StartDraining()

	resp, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader(steadySQL))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("shed response missing Retry-After")
	}

	code, body := getBody(t, srv.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"state": "draining"`) {
		t.Errorf("healthz while draining: status %d body %s", code, body)
	}
}

// TestShutdownCancelsStuckQueries: a Shutdown whose polite wait expires
// cancels in-flight queries through the base context and still drains.
func TestShutdownCancelsStuckQueries(t *testing.T) {
	s, srv := newLifecycleServer(t, Config{MaxConcurrent: 2})

	entered := make(chan struct{})
	release := make(chan struct{})
	var enterOnce, releaseOnce sync.Once
	faultinject.With(t, faultinject.Hooks{Item: func(frag string, gid int) {
		enterOnce.Do(func() { close(entered) })
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
	}})
	defer releaseOnce.Do(func() { close(release) })

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/query", "text/plain",
			strings.NewReader(`SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 50`))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-entered

	// The hook keeps the worker pinned through the whole polite window, so
	// Shutdown must escalate to the forced cancel. Only once the base
	// context is down do we let the hook return — the worker then hits its
	// next checkpoint, sees the cancelled context, and aborts.
	go func() {
		<-s.baseCtx.Done()
		releaseOnce.Do(func() { close(release) })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := <-done; got == 200 {
		t.Fatalf("cancelled query reported success")
	}
	if n := s.QueryRegistry().ActiveCount(); n != 0 {
		t.Fatalf("%d queries still in the registry after drain", n)
	}
	if live := s.PoolStats().LiveArenas; live != 0 {
		t.Fatalf("%d arenas leaked across the drain", live)
	}
}

// TestMemoryPressureSheds: above the heap watermark, queries are refused
// with 503 + Retry-After and the shed counter moves.
func TestMemoryPressureSheds(t *testing.T) {
	s, srv := newLifecycleServer(t, Config{MemHighWater: 1})
	heap := int64(0)
	s.memShed.sample = func() int64 { return heap }

	code, _, _ := postQuery(t, srv.URL, steadySQL)
	if code != 200 {
		t.Fatalf("below watermark: status %d", code)
	}

	heap = 2
	s.memShed.lastAt.Store(0) // expire the cached sample
	resp, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader(steadySQL))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("above watermark: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("memory shed missing Retry-After")
	}

	heap = 0
	s.memShed.lastAt.Store(0)
	if code, _, _ := postQuery(t, srv.URL, steadySQL); code != 200 {
		t.Fatalf("after pressure receded: status %d", code)
	}
}

// TestDeadlineAwareAdmission: when the expected queue wait already
// exceeds the request's deadline budget and no slot is free, the request
// is refused immediately instead of queueing to certain death.
func TestDeadlineAwareAdmission(t *testing.T) {
	s, srv := newLifecycleServer(t, Config{MaxConcurrent: 1, Timeout: 2 * time.Second})

	// Occupy the only slot and make the queue look hopeless.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	s.queueEWMA.Store(int64(time.Hour))

	start := time.Now()
	resp, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader(steadySQL))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("doomed request: status %d, want 503", resp.StatusCode)
	}
	// An immediate refusal, not a 2s queue timeout.
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("doomed request queued for %v before refusal", elapsed)
	}

	// With a free slot the same hopeless estimate still admits.
	<-s.sem
	code, _, _ := postQuery(t, srv.URL, steadySQL)
	s.sem <- struct{}{} // restore for the deferred drain
	if code != 200 {
		t.Fatalf("free slot with stale estimate: status %d", code)
	}
}

// TestDegradedModeServesHealthyTables: a catalog with a quarantined table
// serves the healthy remainder, reports degraded health, and fails
// queries touching the quarantined table fast with 503.
func TestDegradedModeServesHealthyTables(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
	cat.Quarantine("orders_gone", &storage.CorruptError{
		Path: "orders_gone.vdb", Column: "okey", Offset: 128, Reason: "checksum mismatch",
	})
	_, srv := newLifecycleServer(t, Config{Cat: cat})

	code, body := getBody(t, srv.URL+"/healthz")
	if code != 200 || !strings.Contains(body, `"state": "degraded"`) || !strings.Contains(body, "orders_gone") {
		t.Errorf("degraded healthz: status %d body %s", code, body)
	}

	// Healthy tables serve normally.
	if code, _, body := postQuery(t, srv.URL, steadySQL); code != 200 {
		t.Fatalf("healthy table in degraded mode: status %d: %s", code, body)
	}

	// Queries touching the quarantined table fail fast with the typed 503.
	resp, err := http.Post(srv.URL+"/query", "text/plain",
		strings.NewReader(`SELECT COUNT(*) AS n FROM orders_gone`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined table query: status %d, want 503", resp.StatusCode)
	}
}
