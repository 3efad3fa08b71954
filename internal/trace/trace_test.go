package trace

import (
	"encoding/json"
	"expvar"
	"strings"
	"testing"
	"time"
)

func TestFinishTotalsSteps(t *testing.T) {
	tr := &Trace{Backend: "compiled"}
	tr.Add(Step{Kind: KindFragment, Name: "fold_1", Items: 100,
		MaterializedBytes: 800, FoldRuns: 4})
	tr.Add(Step{Kind: KindBulk, Name: "Scatter", Items: 50,
		MaterializedBytes: 400, ScatterItems: 50})
	tr.Add(Step{Kind: KindBind, Name: "t.a"})
	tr.AllocBytes = 1200
	tr.Finish(3 * time.Millisecond)

	if tr.Steps[0].Index != 0 || tr.Steps[1].Index != 1 || tr.Steps[2].Index != 2 {
		t.Fatalf("step indices not assigned in order: %+v", tr.Steps)
	}
	if tr.Fragments != 1 || tr.BulkSteps != 1 {
		t.Fatalf("fragments=%d bulk=%d, want 1/1", tr.Fragments, tr.BulkSteps)
	}
	if tr.Items != 150 || tr.MaterializedBytes != 1200 ||
		tr.FoldRuns != 4 || tr.ScatterItems != 50 {
		t.Fatalf("totals wrong: %+v", tr)
	}
	if tr.WallNS != (3 * time.Millisecond).Nanoseconds() {
		t.Fatalf("wall = %d", tr.WallNS)
	}
}

// The cumulative counters are load-bearing: Finish must fold every traced
// query into them, and the always-on CountQuery/CountFragment must tick.
func TestCumulativeCounters(t *testing.T) {
	before := Snapshot()

	CountQuery(0)
	CountFragment()
	CountFragment()

	tr := &Trace{Backend: "compiled", AllocBytes: 64}
	tr.Add(Step{Kind: KindFragment, Items: 10, MaterializedBytes: 80, FoldRuns: 2})
	tr.Add(Step{Kind: KindBulk, Items: 5, ScatterItems: 5})
	tr.Finish(time.Millisecond)

	after := Snapshot()
	wantDelta := map[string]int64{
		"queries":            1,
		"fragments":          2,
		"traced_queries":     1,
		"items":              15,
		"bytes_allocated":    64,
		"bytes_materialized": 80,
		"fold_runs":          2,
		"scatter_items":      5,
	}
	for k, d := range wantDelta {
		if got := after[k] - before[k]; got != d {
			t.Errorf("counter %s delta = %d, want %d", k, got, d)
		}
	}
}

func TestExpvarPublished(t *testing.T) {
	v := expvar.Get("voodoo")
	if v == nil {
		t.Fatal("expvar voodoo not published")
	}
	var m map[string]int64
	if err := json.Unmarshal([]byte(v.String()), &m); err != nil {
		t.Fatalf("expvar voodoo is not a counter map: %v", err)
	}
	for _, k := range []string{"queries", "fragments", "traced_queries",
		"items", "bytes_allocated", "bytes_materialized", "fold_runs", "scatter_items"} {
		if _, ok := m[k]; !ok {
			t.Errorf("expvar voodoo missing counter %q", k)
		}
	}
}

func TestStringRendering(t *testing.T) {
	tr := &Trace{
		Query: "Q6", Backend: "compiled",
		Options: map[string]bool{"predication": true},
	}
	tr.Add(Step{Kind: KindFragment, Name: "ffold_3", Stmts: []int{1, 2, 3},
		Fused: true, Suppressed: true, Predicated: true,
		Extent: 8, Intent: 128, Items: 1024, MaterializedBytes: 64, FoldRuns: 8,
		Specialized: "interp"})
	tr.Add(Step{Kind: KindFragment, Name: "scat_4", Virtual: true, Specialized: "batch"})
	tr.Add(Step{Kind: KindFragment, Name: "gfold_5", Specialized: "batch", Tile: "7x146"})
	tr.Add(Step{Kind: KindFragment, Name: "gfold_6", Specialized: "batch", Tile: "7x85", AccWide: 11, AccCarried: 1})
	tr.Add(Step{Kind: KindFragment, Name: "ffold_7", Specialized: "batch", Tile: "127x8", Early: 2})
	tr.Add(Step{Kind: KindFragment, Name: "gfold_8", Specialized: "batch", Tile: "32x14", AccWide: 3, Early: 6})
	tr.Finish(time.Millisecond)

	s := tr.String()
	for _, want := range []string{
		"compiled backend", "predication", "Q6",
		"ffold_3", "shape=8x128/blocked",
		"items=1024", "mat=64B", "folds=8",
		"fused:3", "suppress", "predicated", "virtual",
		"spec:interp]", "spec:batch]", "spec:batch(7x146)]",
		"spec:batch(7x85,acc 11/12)]", "spec:batch(127x8,early 2)]",
		"spec:batch(32x14,acc 3/3,early 6)]", "total:", "fragments=6",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := &Trace{Backend: "interpreted"}
	tr.Add(Step{Kind: KindStmt, Name: "FoldSum", Stmts: []int{7}, Items: 3})
	tr.Finish(time.Microsecond)

	data, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Backend != "interpreted" || len(back.Steps) != 1 ||
		back.Steps[0].Name != "FoldSum" || back.Items != 3 {
		t.Fatalf("round trip mangled trace: %+v", back)
	}
}
