package tpch

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"voodoo/internal/metrics"
	"voodoo/internal/rel"
	"voodoo/internal/trace"
	"voodoo/internal/vector"
)

// fragmentPaths reads the process-wide fragment-execution counters: the
// per-path series the executor increments, and the total of all fragment
// runs they must add up to.
func fragmentPaths() (interp, batch, total int64) {
	vec := metrics.Default.CounterVec("voodoo_fragments_specialized_total", "", "path")
	return vec.With("interp").Value(), vec.With("batch").Value(), trace.Snapshot()["fragments"]
}

// TestGoldenPathMix pins which execution path every TPC-H fragment takes:
// per query, fragment executions by path — and requires a run with a
// TraceSink to take exactly the paths the plain run takes, because
// observing a query must not change which code executes it. A change to
// which path a fragment takes shows up here as a reviewable golden diff; a sink that
// forks the path, or a fragment execution on any path other than interp or
// batch, fails outright. Tests in this package do not run in parallel, so
// deltas of the process-wide counters belong to the query.
func TestGoldenPathMix(t *testing.T) {
	cat := cutCat()
	var sb strings.Builder
	sb.WriteString("query\tinterp\tbatch\n")
	var sum [2]int64
	for _, num := range QueryNumbers {
		qf, err := Query(num)
		if err != nil {
			t.Fatal(err)
		}
		var rows [2][2]int64 // plain, traced × interp, batch
		for i, traced := range []bool{false, true} {
			e := &rel.Engine{Cat: cat, Backend: rel.Compiled}
			var steps [2]int64 // interp, batch as the trace records them
			if traced {
				e.TraceSink = func(tr *trace.Trace) {
					for _, s := range tr.Steps {
						switch {
						case s.Kind != trace.KindFragment:
						case s.Specialized == "interp":
							steps[0]++
						case s.Specialized == "batch":
							steps[1]++
						default:
							t.Errorf("%s: fragment %s ran on unknown path %q", queryName(num), s.Name, s.Specialized)
						}
					}
				}
			}
			i0, b0, t0 := fragmentPaths()
			if _, _, err := qf(e); err != nil {
				t.Fatalf("%s (traced=%v): %v", queryName(num), traced, err)
			}
			i1, b1, t1 := fragmentPaths()
			interp, batch := i1-i0, b1-b0
			if interp+batch != t1-t0 {
				t.Errorf("%s (traced=%v): %d interp + %d batch fragment executions, but %d fragments ran — some took another path",
					queryName(num), traced, interp, batch, t1-t0)
			}
			if traced && (steps[0] != interp || steps[1] != batch) {
				t.Errorf("%s: trace records %d interp / %d batch steps, counters say %d / %d",
					queryName(num), steps[0], steps[1], interp, batch)
			}
			rows[i] = [2]int64{interp, batch}
		}
		if rows[0] != rows[1] {
			t.Errorf("%s: %d interp / %d batch plain but %d / %d behind a TraceSink — observing changed the path",
				queryName(num), rows[0][0], rows[0][1], rows[1][0], rows[1][1])
		}
		fmt.Fprintf(&sb, "q%02d\t%d\t%d\n", num, rows[0][0], rows[0][1])
		sum[0] += rows[0][0]
		sum[1] += rows[0][1]
	}
	fmt.Fprintf(&sb, "sum\t%d\t%d\n", sum[0], sum[1])

	got := sb.String()
	path := filepath.Join("testdata", "golden", "pathmix.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden path mix (run `go test ./internal/tpch -run Golden -update` to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("fragment path mix drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestBulkStepsAreNotQueries: a bulk step evaluates one operator through
// the interpreter inside a plan run; it is not a program execution of its
// own. One BulkCompiled run of Q6 must move voodoo_queries_total and the
// voodoo_query_wall_seconds observation count by exactly the number of
// lowered programs, pooled or not.
func TestBulkStepsAreNotQueries(t *testing.T) {
	cat := Generate(Config{SF: 0.01, Seed: 42})
	qf, err := Query(6)
	if err != nil {
		t.Fatal(err)
	}
	wall := metrics.Default.Histogram("voodoo_query_wall_seconds", "", nil)
	for _, pool := range []*vector.Pool{nil, vector.NewPool(0)} {
		var programs, bulkSteps int64
		e := &rel.Engine{Cat: cat, Backend: rel.BulkCompiled, Pool: pool}
		e.TraceSink = func(tr *trace.Trace) {
			programs++
			bulkSteps += int64(tr.BulkSteps)
		}
		q0, w0 := trace.Snapshot()["queries"], wall.Count()
		if _, _, err := qf(e); err != nil {
			t.Fatal(err)
		}
		if bulkSteps == 0 {
			t.Fatal("the bulk backend ran Q6 without a single bulk step; the test checks nothing")
		}
		if got := trace.Snapshot()["queries"] - q0; got != programs {
			t.Errorf("pooled=%v: voodoo_queries_total moved by %d for %d lowered programs (%d bulk steps)",
				pool != nil, got, programs, bulkSteps)
		}
		if got := wall.Count() - w0; got != programs {
			t.Errorf("pooled=%v: voodoo_query_wall_seconds took %d observations for %d lowered programs",
				pool != nil, got, programs)
		}
	}
}
