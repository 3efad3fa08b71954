package rel

import (
	"sync"
	"testing"

	"voodoo/internal/trace"
)

// traceQuery is a small grouped aggregation touching fold, gather and
// scatter machinery.
func traceQuery() Query {
	return Query{
		Name: "trace-test",
		Root: GroupAgg{
			In:   Scan{Table: "ord", Cols: []string{"total", "prio"}},
			Keys: []string{"prio"},
			Aggs: []AggSpec{{Func: Sum, E: C("total"), As: "sum_total"}},
		},
	}
}

// runTraced runs q on a copy of e with a private sink — what a caller
// sharing one engine across concurrent queries does — and returns the
// traces, one per lowered program.
func runTraced(e *Engine, q Query) (*Result, []*trace.Trace, error) {
	eng := *e
	var traces []*trace.Trace
	eng.TraceSink = func(t *trace.Trace) { traces = append(traces, t) }
	res, _, err := eng.Run(q)
	return res, traces, err
}

func TestRunTracedCompiled(t *testing.T) {
	e := &Engine{Cat: testCatalog(), Backend: Compiled}
	before := trace.Snapshot()
	res, traces, err := runTraced(e, traceQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no result rows")
	}
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Backend != "compiled" || tr.Query != "trace-test" {
		t.Fatalf("trace header wrong: backend=%q query=%q", tr.Backend, tr.Query)
	}
	if tr.Fragments == 0 {
		t.Fatalf("no fragment steps in trace:\n%s", tr)
	}
	if tr.Items == 0 || tr.MaterializedBytes == 0 {
		t.Fatalf("per-item numbers missing: items=%d mat=%d", tr.Items, tr.MaterializedBytes)
	}
	if tr.AllocBytes == 0 {
		t.Fatal("AllocBytes not recorded")
	}
	if tr.WallNS <= 0 {
		t.Fatal("wall time not recorded")
	}
	var fragWall bool
	for _, s := range tr.Steps {
		if s.Kind == trace.KindFragment && s.WallNS > 0 && s.Workers > 0 {
			fragWall = true
		}
	}
	if !fragWall {
		t.Fatalf("no fragment step carries wall time and workers:\n%s", tr)
	}

	// The trace must have folded into the cumulative counters.
	after := trace.Snapshot()
	if after["traced_queries"]-before["traced_queries"] < 1 {
		t.Error("traced_queries counter did not advance")
	}
	if after["queries"]-before["queries"] < 1 {
		t.Error("queries counter did not advance")
	}
	if after["fragments"]-before["fragments"] < int64(tr.Fragments) {
		t.Error("fragments counter did not advance by the traced fragments")
	}
	if after["items"]-before["items"] < tr.Items {
		t.Error("items counter did not absorb the trace totals")
	}
}

func TestRunTracedInterp(t *testing.T) {
	e := &Engine{Cat: testCatalog(), Backend: Interpreted}
	_, traces, err := runTraced(e, traceQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Backend != "interpreted" {
		t.Fatalf("backend = %q", tr.Backend)
	}
	var stmts, folds int
	for _, s := range tr.Steps {
		if s.Kind == trace.KindStmt {
			stmts++
		}
		if s.FoldRuns > 0 {
			folds++
		}
	}
	if stmts == 0 {
		t.Fatal("interpreter trace has no stmt steps")
	}
	if folds == 0 {
		t.Fatal("grouped aggregation trace records no fold runs")
	}
	if tr.MaterializedBytes == 0 {
		t.Fatal("interpreter trace has no materialized bytes (it materializes everything)")
	}
}

// The backends must agree between traced and untraced execution.
func TestTracedMatchesUntraced(t *testing.T) {
	for name, e := range engines(testCatalog()) {
		plain, _, err := e.Run(traceQuery())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		traced, _, err := runTraced(e, traceQuery())
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !sameResult(plain, traced) {
			t.Fatalf("%s: traced run disagrees with untraced:\n%s\nvs\n%s", name, plain, traced)
		}
	}
}

// Untraced runs without CollectStats must not accumulate per-fragment
// stats — the per-item counting stays off (the near-zero-overhead
// contract).
func TestUntracedCollectsNoStats(t *testing.T) {
	e := &Engine{Cat: testCatalog(), Backend: Compiled}
	_, stats, err := e.Run(traceQuery())
	if err != nil {
		t.Fatal(err)
	}
	if stats != nil {
		t.Fatalf("stats collected without CollectStats: %+v", stats)
	}
}

// Two goroutines tracing concurrently against one shared Engine must not
// race: traces are per-query objects and the process counters are atomic.
// Run under -race (the CI test job does).
func TestConcurrentTracedQueries(t *testing.T) {
	e := &Engine{Cat: testCatalog(), Backend: Compiled}
	const goroutines = 2
	const iters = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	results := make([]*Result, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, traces, err := runTraced(e, traceQuery())
				if err != nil {
					errs <- err
					return
				}
				if len(traces) != 1 || traces[0].Fragments == 0 {
					errs <- errNoTrace
					return
				}
				results[g] = res
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !sameResult(results[0], results[1]) {
		t.Fatalf("concurrent traced queries disagree:\n%s\nvs\n%s", results[0], results[1])
	}
}

var errNoTrace = errTrace("traced run produced no usable trace")

type errTrace string

func (e errTrace) Error() string { return string(e) }
