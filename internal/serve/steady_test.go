package serve

import (
	"context"
	"encoding/json"
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
	"voodoo/internal/storage"
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

// TestTPCHPlanCacheStats: a prebuilt TPC-H query resolves its plan as SQL
// does. On a fresh server the first ?q=6 builds its plan (cached: false,
// compile_ns > 0) and the second finds it (cached: true, compile_ns 0,
// a measured lookup), each moving its plan cache counter by one.
func TestTPCHPlanCacheStats(t *testing.T) {
	reg := testRegistry(t)
	srv := newTestServer(t, Config{Registry: reg})
	hits := reg.Counter("voodoo_plan_cache_hits_total", "")
	misses := reg.Counter("voodoo_plan_cache_misses_total", "")
	ask := func() queryStats {
		t.Helper()
		code, body := getBody(t, srv.URL+"/query?q=6")
		var r queryResponse
		if code != 200 {
			t.Fatalf("q=6: status %d: %s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatalf("bad response JSON: %v\n%s", err, body)
		}
		return r.Stats
	}
	first := ask()
	if first.Cached || first.CompileNS <= 0 {
		t.Fatalf("first q=6: cached %v compile_ns %d, want false and > 0", first.Cached, first.CompileNS)
	}
	if h, m := hits.Value(), misses.Value(); h != 0 || m != 1 {
		t.Fatalf("after the first q=6: %d hits, %d misses; want 0 and 1", h, m)
	}
	second := ask()
	if !second.Cached || second.CompileNS != 0 || second.PlanLookupNS <= 0 {
		t.Fatalf("second q=6: cached %v compile_ns %d plan_lookup_ns %d, want true, 0 and > 0",
			second.Cached, second.CompileNS, second.PlanLookupNS)
	}
	if h, m := hits.Value(), misses.Value(); h != 1 || m != 1 {
		t.Fatalf("after the second q=6: %d hits, %d misses; want 1 and 1", h, m)
	}
}

// TestPlanCacheLRU pins the served plan cache's bound, which it shares
// with everything else the catalog memoizes: a hit refreshes a plan's
// recency, the plan a full memo pushes out is the least recently used
// one, the server counts the evictions its own plans cause, and a server
// over another catalog shares no plan.
func TestPlanCacheLRU(t *testing.T) {
	table := storage.NewTable("t")
	table.AddInt("a", []int64{1, 2, 3})
	filler := func() (any, error) { return struct{}{}, nil }

	// The memo's bound: inserts on a scratch catalog until one evicts.
	bound := 0
	for scratch := storage.NewCatalog(); ; bound++ {
		if _, _, evicted, _ := scratch.Derived(bound, filler); evicted {
			break
		}
	}

	cat := storage.NewCatalog().Add(table)
	reg := testRegistry(t)
	srv := httptest.NewServer(New(Config{Cat: cat, Registry: reg}).Mux())
	defer srv.Close()
	evictions := reg.Counter("voodoo_plan_cache_evictions_total", "")
	const (
		qA = "SELECT SUM(a) AS s FROM t"
		qB = "SELECT COUNT(*) AS n FROM t"
		qC = "SELECT MAX(a) AS m FROM t"
	)
	ask := func(base, q string, wantCached bool) {
		t.Helper()
		code, r, body := postQuery(t, base, q)
		if code != 200 || r.Stats.Cached != wantCached {
			t.Fatalf("%q: status %d cached %v, want cached %v: %s", q, code, r.Stats.Cached, wantCached, body)
		}
	}
	ask(srv.URL, qA, false)
	ask(srv.URL, qB, false)
	ask(srv.URL, qA, true) // qB is now the least recently used
	for i := range bound - 2 {
		if _, _, evicted, _ := cat.Derived(i, filler); evicted {
			t.Fatalf("filler %d of %d evicted before the memo was full", i, bound-2)
		}
	}
	if n := evictions.Value(); n != 0 {
		t.Fatalf("%d evictions counted before the memo overflowed", n)
	}
	ask(srv.URL, qC, false)
	if n := evictions.Value(); n != 1 {
		t.Fatalf("evictions = %d after the insert past the bound, want 1", n)
	}
	ask(srv.URL, qA, true)
	ask(srv.URL, qB, false)
	if n := evictions.Value(); n != 2 {
		t.Fatalf("evictions = %d after recompiling the evicted plan, want 2", n)
	}

	// Another catalog is another key space, even with the same tables.
	other := httptest.NewServer(New(Config{Cat: storage.NewCatalog().Add(table), Registry: testRegistry(t)}).Mux())
	defer other.Close()
	ask(other.URL, qA, false)
}

// A served plan captures its tables' columns, so replacing a table on the
// served catalog must retire it: the repeat compiles anew and answers from
// the new rows, not from the replaced ones.
func TestServedPlanFollowsTableReplacement(t *testing.T) {
	table := func(vals ...int64) *storage.Table {
		tb := storage.NewTable("t")
		tb.AddInt("a", vals)
		return tb
	}
	cat := storage.NewCatalog().Add(table(1, 2, 3))
	srv := httptest.NewServer(New(Config{Cat: cat, Registry: testRegistry(t)}).Mux())
	defer srv.Close()
	const q = "SELECT SUM(a) AS s FROM t"
	ask := func(wantRows string, wantCached bool) {
		t.Helper()
		code, r, body := postQuery(t, srv.URL, q)
		if code != 200 || fmt.Sprint(r.Rows) != wantRows || r.Stats.Cached != wantCached {
			t.Fatalf("status %d, rows %v cached %v; want %s cached %v: %s", code, r.Rows, r.Stats.Cached, wantRows, wantCached, body)
		}
	}
	ask("[map[s:6]]", false)
	ask("[map[s:6]]", true)
	cat.Add(table(10, 20))
	ask("[map[s:30]]", false)
}

// Whitespace inside a string literal is part of the query: two texts that
// differ only there must not share a plan.
func TestServedPlanKeepsLiteralSpacing(t *testing.T) {
	tb := storage.NewTable("t")
	tb.AddString("s", []string{"A B", "A B", "C"})
	srv := httptest.NewServer(New(Config{Cat: storage.NewCatalog().Add(tb), Registry: testRegistry(t)}).Mux())
	defer srv.Close()
	for _, tc := range []struct{ lit, rows string }{{"A  B", "[map[n:0]]"}, {"A B", "[map[n:2]]"}} {
		code, r, body := postQuery(t, srv.URL, "SELECT COUNT(*) AS n FROM t WHERE s = '"+tc.lit+"'")
		if code != 200 || fmt.Sprint(r.Rows) != tc.rows || r.Stats.Cached {
			t.Fatalf("'%s': status %d, rows %v cached %v; want %s compiled anew: %s", tc.lit, code, r.Rows, r.Stats.Cached, tc.rows, body)
		}
	}
}

// A dictionary column serves its strings, also a value that spells its
// own code: "1" at code 1 is the string "1", not the number 1, while a
// computed column stays a number.
func TestServedDictionaryValueSpellingItsCode(t *testing.T) {
	tb := storage.NewTable("t")
	tb.AddString("s", []string{"0", "1", "1", "x"})
	srv := httptest.NewServer(New(Config{Cat: storage.NewCatalog().Add(tb), Registry: testRegistry(t)}).Mux())
	defer srv.Close()
	code, r, body := postQuery(t, srv.URL, "SELECT s, COUNT(*) AS n FROM t GROUP BY s ORDER BY s")
	want := `[]map[string]interface {}{map[string]interface {}{"n":1, "s":"0"}, map[string]interface {}{"n":2, "s":"1"}, map[string]interface {}{"n":1, "s":"x"}}`
	if got := fmt.Sprintf("%#v", r.Rows); code != 200 || got != want {
		t.Fatalf("status %d, rows %s; want %s: %s", code, got, want, body)
	}
}

// Two servers over one catalog compile with different options, so they
// never share a SQL plan: each compiles its own first request.
func TestServersWithDifferentOptsShareNoPlan(t *testing.T) {
	cat := freshCat()
	var rows []string
	for _, opt := range []compile.Options{{}, {Predication: true}} {
		srv := httptest.NewServer(New(Config{Cat: cat, Opt: opt, Registry: testRegistry(t)}).Mux())
		defer srv.Close()
		for _, wantCached := range []bool{false, true} {
			code, r, body := postQuery(t, srv.URL, steadySQL)
			if code != 200 || r.Stats.Cached != wantCached {
				t.Fatalf("%+v: status %d cached %v, want cached %v: %s", opt, code, r.Stats.Cached, wantCached, body)
			}
			rows = append(rows, fmt.Sprint(r.Rows))
		}
	}
	for _, r := range rows[1:] {
		if r != rows[0] {
			t.Fatalf("answers differ across options:\n%s\n%s", rows[0], r)
		}
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
		// Prepare then RunPrepared, not Run: Run would reuse the plan
		// its catalog memoizes, and this path stands for the full work.
		e := &rel.Engine{Cat: testCat, Opt: opt}
		pr, err := e.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := e.RunPrepared(ctx, pr)
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
// runs of the same queries on the same data (0 interp / 86 batch in sum).
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
