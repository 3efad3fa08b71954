package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/metrics"
	"voodoo/internal/rel"
	"voodoo/internal/sql"
	"voodoo/internal/vector"
)

const steadySQL = `SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS q
  FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`

// raceEnabled reports a build with the race detector (set in race_test.go).
var raceEnabled bool

// TestPlanCacheHit pins the acceptance criterion of the plan cache: the
// second identical request skips parse+plan entirely (compile_ns == 0,
// cached: true) and returns the same rows, and a whitespace variant of
// the SQL shares the cache entry.
func TestPlanCacheHit(t *testing.T) {
	srv := newTestServer(t, Config{})

	code, first, body := postQuery(t, srv.URL, steadySQL)
	if code != 200 {
		t.Fatalf("first request: status %d: %s", code, body)
	}
	if first.Stats.Cached {
		t.Fatalf("first request reported cached=true")
	}
	if first.Stats.CompileNS <= 0 {
		t.Fatalf("first request reported compile_ns=%d, want > 0", first.Stats.CompileNS)
	}

	code, second, body := postQuery(t, srv.URL, steadySQL)
	if code != 200 {
		t.Fatalf("second request: status %d: %s", code, body)
	}
	if !second.Stats.Cached {
		t.Fatalf("second identical request not served from the plan cache: %s", body)
	}
	if second.Stats.CompileNS != 0 {
		t.Fatalf("cache hit reported compile_ns=%d, want 0", second.Stats.CompileNS)
	}
	if len(second.Rows) != len(first.Rows) || fmt.Sprint(second.Rows) != fmt.Sprint(first.Rows) {
		t.Fatalf("cached run diverges:\nfirst:  %v\nsecond: %v", first.Rows, second.Rows)
	}

	// A formatting variant of the same query shares the entry.
	variant := "SELECT   l_returnflag,\n COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem\tGROUP BY l_returnflag ORDER BY l_returnflag"
	code, third, body := postQuery(t, srv.URL, variant)
	if code != 200 {
		t.Fatalf("variant request: status %d: %s", code, body)
	}
	if !third.Stats.Cached {
		t.Fatalf("whitespace variant missed the cache: %s", body)
	}
}

// TestPlanCacheLRU exercises the cache data structure directly: eviction
// order, recency refresh, and the disabled (nil) cache.
func TestPlanCacheLRU(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newPlanCache(2, reg)
	prA, prB, prC := &rel.Prepared{}, &rel.Prepared{}, &rel.Prepared{}

	c.put(testCat, "a", prA)
	c.put(testCat, "b", prB)
	if _, ok := c.get(testCat, "a"); !ok {
		t.Fatal("a missing after insert")
	}
	// a was just used, so inserting c must evict b.
	c.put(testCat, "c", prC)
	if _, ok := c.get(testCat, "b"); ok {
		t.Fatal("b survived eviction; LRU order ignores recency")
	}
	if got, ok := c.get(testCat, "a"); !ok || got != prA {
		t.Fatal("a lost or swapped")
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
	// A different catalog pointer is a different key space.
	if _, ok := c.get(nil, "a"); ok {
		t.Fatal("catalog identity ignored in the cache key")
	}

	var disabled *planCache
	if _, ok := disabled.get(testCat, "a"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	disabled.put(testCat, "a", prA) // must not panic
	if disabled.len() != 0 {
		t.Fatal("disabled cache has entries")
	}
}

// TestSteadyStateAllocDrop is the tentpole's acceptance test: a repeated
// query on the warm path (cached prepared plan + pooled buffers) must
// allocate at least 80% less than the cold path (parse, plan, compile,
// run on the heap — what every request paid before this change), with
// bit-identical rows.
func TestSteadyStateAllocDrop(t *testing.T) {
	ctx := context.Background()
	// Single-threaded execution: parallel workers allocate on their own
	// goroutines at unpredictable points, which would blur allocs/op.
	opt := compile.Options{Workers: 1}

	cold := func() *rel.Result {
		stmt, err := sql.Parse(steadySQL)
		if err != nil {
			t.Fatal(err)
		}
		q, err := sql.Plan(stmt, testCat)
		if err != nil {
			t.Fatal(err)
		}
		e := &rel.Engine{Cat: testCat, Opt: opt}
		res, _, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	pool := vector.NewPool(0)
	warmEngine := &rel.Engine{Cat: testCat, Opt: opt, Pool: pool}
	stmt, err := sql.Parse(steadySQL)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Plan(stmt, testCat)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := warmEngine.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	warm := func() *rel.Result {
		res, _, err := warmEngine.RunPrepared(ctx, pr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Bit-identical results first (and this warms the pool's free lists).
	want, got := cold(), warm()
	if fmt.Sprint(want.Rows) != fmt.Sprint(got.Rows) {
		t.Fatalf("pooled steady-state rows diverge:\ncold: %v\nwarm: %v", want.Rows, got.Rows)
	}

	coldAllocs := testing.AllocsPerRun(5, func() { cold() })
	warmAllocs := testing.AllocsPerRun(5, func() { warm() })
	t.Logf("cold %.0f allocs/op, warm %.0f allocs/op (%.1f%% drop)",
		coldAllocs, warmAllocs, 100*(1-warmAllocs/coldAllocs))
	if warmAllocs > coldAllocs/5 {
		t.Errorf("steady state allocates %.0f/op vs %.0f/op cold — less than the required 80%% drop",
			warmAllocs, coldAllocs)
	}
}

// TestUnreadSpanViewIsFree: retaining a request for /debug/spans costs the
// request path nothing — the span tree is rendered when somebody asks for
// it, not when the query finishes. A plan-cache hit through handleQuery
// allocates no more with the default SpanRetain than with retention off
// (a small fixed slack absorbs the runtime's own noise).
func TestUnreadSpanViewIsFree(t *testing.T) {
	allocs := func(spanRetain int) float64 {
		s := New(Config{
			Cat: testCat, Opt: compile.Options{Workers: 1},
			Registry: metrics.NewRegistry(), SpanRetain: spanRetain,
		})
		do := func() {
			w := httptest.NewRecorder()
			s.handleQuery(w, httptest.NewRequest("POST", "/query",
				strings.NewReader("SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey")))
			if w.Code != 200 {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
		}
		do() // compile into the plan cache
		do() // warm the buffer pool
		return testing.AllocsPerRun(20, do)
	}
	on, off := allocs(0), allocs(-1)
	t.Logf("plan-cache hit: %.0f allocs/op retaining spans, %.0f with SpanRetain -1", on, off)
	if raceEnabled {
		// The race detector makes sync.Pool drop a random share of its Puts,
		// so both counts include pool refills: there is nothing to compare.
		return
	}
	const slack = 3
	if on > off+slack {
		t.Errorf("retaining the request for /debug/spans costs %.0f allocs/op (%.0f vs %.0f); the unread view must be free",
			on-off, on, off)
	}
}

// BenchmarkSteadyStateQuery is the repeated-query benchmark of the issue:
// same SQL, warm plan cache, pooled buffers. Run with -benchmem.
func BenchmarkSteadyStateQuery(b *testing.B) {
	ctx := context.Background()
	pool := vector.NewPool(0)
	e := &rel.Engine{Cat: testCat, Opt: compile.Options{Workers: 1}, Pool: pool}
	stmt, err := sql.Parse(steadySQL)
	if err != nil {
		b.Fatal(err)
	}
	q, err := sql.Plan(stmt, testCat)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := e.Prepare(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.RunPrepared(ctx, pr); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServedPathMixMatchesGolden: the daemon installs a trace sink on every
// request, and a sink must not change which code executes a query. One
// ?q=N sweep through handleQuery moves the executor's per-path fragment
// counters by exactly the mix internal/tpch pins for plain, unobserved
// runs of the same queries on the same data (0 interp / 82 batch in sum).
func TestServedPathMixMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "tpch", "testdata", "golden", "pathmix.golden"))
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{Registry: testRegistry(t)})
	vec := metrics.Default.CounterVec("voodoo_fragments_specialized_total", "", "path")
	paths := func() [2]int64 { return [2]int64{vec.With("interp").Value(), vec.With("batch").Value()} }
	queries := 0
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		var num int
		var want [2]int64
		if n, _ := fmt.Sscanf(line, "q%d\t%d\t%d", &num, &want[0], &want[1]); n != 3 {
			continue // header and sum rows
		}
		queries++
		before := paths()
		if code, body := getBody(t, fmt.Sprintf("%s/query?q=%d", srv.URL, num)); code != 200 {
			t.Fatalf("q%d: status %d: %s", num, code, body)
		}
		after := paths()
		if got := [2]int64{after[0] - before[0], after[1] - before[1]}; got != want {
			t.Errorf("q%02d served took %d interp / %d batch fragments, unobserved runs take %d / %d",
				num, got[0], got[1], want[0], want[1])
		}
	}
	if queries != 14 {
		t.Fatalf("golden path mix lists %d queries, want the 14 of the sweep", queries)
	}
}
