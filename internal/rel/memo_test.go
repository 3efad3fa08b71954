package rel

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"weak"

	"voodoo/internal/compile"
	"voodoo/internal/storage"
)

// memoQuery is a grouped sum over ord, the table TestMemoDroppedOnAdd
// replaces.
func memoQuery() Query {
	return Query{Root: GroupAgg{
		In:   Scan{Table: "ord", Cols: []string{"total", "prio"}},
		Keys: []string{"prio"},
		Aggs: []AggSpec{{Func: Sum, E: C("total"), As: "s"}},
	}}
}

func mustRun(t *testing.T, e *Engine, q Query) *Result {
	t.Helper()
	res, _, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A table replaced under a memoized plan must not be answered from the old
// plan, which captured the old columns when it compiled.
func TestMemoDroppedOnAdd(t *testing.T) {
	cat := testCatalog()
	e := &Engine{Cat: cat}
	old := mustRun(t, e, memoQuery())
	hits := memoHitC.Value()
	if again := mustRun(t, e, memoQuery()); !sameResult(old, again) || memoHitC.Value() != hits+1 {
		t.Fatalf("repeat did not reuse the plan (hits %d → %d) or answered differently", hits, memoHitC.Value())
	}

	ord := storage.NewTable("ord")
	ord.AddInt("okey", []int64{1, 2, 3, 4, 5, 6})
	ord.AddInt("ckey", []int64{100, 101, 100, 103, 102, 102})
	ord.AddFloat("total", []float64{1, 2, 3, 4, 5, 6})
	ord.AddInt("prio", []int64{1, 2, 1, 3, 2, 1})
	cat.Add(ord)

	got := mustRun(t, e, memoQuery())
	want := mustRun(t, &Engine{Cat: cat, Backend: Interpreted}, memoQuery())
	if !sameResult(got, want) || sameResult(got, old) {
		t.Fatalf("after Add the memoized plan answered the old table:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// The memo keys on the plan, not on what RunPrepared applies to its rows:
// two queries over one root share a plan and keep their own OrderBy and
// Limit.
func TestMemoKeepsCallerPostSteps(t *testing.T) {
	e := &Engine{Cat: testCatalog()}
	all := mustRun(t, e, memoQuery())
	hits := memoHitC.Value()
	q := memoQuery()
	q.OrderBy = []OrderKey{{Col: "s", Desc: true}}
	q.Limit = 1
	top := mustRun(t, e, q)
	if memoHitC.Value() != hits+1 {
		t.Fatal("a query differing only in OrderBy/Limit did not reuse the plan")
	}
	if len(all.Rows) != 3 || len(top.Rows) != 1 {
		t.Fatalf("rows: %d unordered, %d with OrderBy+Limit; want 3 and 1", len(all.Rows), len(top.Rows))
	}
	wantRow(t, top.Rows[0], map[string]float64{"prio": 1, "s": 100})
}

// A hit delivers the plan that runs to PlanSink, as a miss does.
func TestMemoPlanSinkOnHit(t *testing.T) {
	var plans []*compile.Plan
	e := &Engine{Cat: testCatalog(), PlanSink: func(p *compile.Plan) { plans = append(plans, p) }}
	hits := memoHitC.Value()
	mustRun(t, e, memoQuery())
	mustRun(t, e, memoQuery())
	if len(plans) != 2 || plans[0] == nil || plans[0] != plans[1] {
		t.Fatalf("PlanSink got %d plans (%v), want the same plan twice", len(plans), plans)
	}
	if memoHitC.Value() != hits+1 {
		t.Fatal("a PlanSink changed whether the plan was reused")
	}
}

// A catalog that ran queries is collected once nothing else references it:
// the memo it holds is not reachable from anywhere else.
func TestMemoCollectedWithCatalog(t *testing.T) {
	wp := runAndDrop(t)
	for i := 0; i < 5 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("a dropped catalog with memoized plans was not collected")
	}
}

func runAndDrop(t *testing.T) weak.Pointer[storage.Catalog] {
	cat := testCatalog()
	for _, b := range []Backend{Compiled, BulkCompiled} {
		e := &Engine{Cat: cat, Backend: b}
		mustRun(t, e, memoQuery())
		mustRun(t, e, traceQuery())
	}
	return weak.Make(cat)
}

// Roots that differ anywhere never encode alike, so they never share a
// memo entry; equal roots built apart encode alike.
func TestMemoKeyDistinguishesRoots(t *testing.T) {
	scan := func(cols ...string) Node { return Scan{Table: "t", Cols: cols} }
	agg := func(in Node, f AggFunc, e Expr) Node {
		return GroupAgg{In: in, Aggs: []AggSpec{{Func: f, E: e, As: "x"}}}
	}
	join := func(semi bool) Node {
		return IndexJoin{Probe: scan("a"), ProbeKey: "a", Build: scan("b"), BuildKey: "b", Semi: semi}
	}
	grouped := func(d ...Domain) Node {
		return GroupAgg{In: scan("k"), Keys: []string{"k"}, Aggs: []AggSpec{{Func: Count, As: "n"}}, Domains: d}
	}
	filter := func(p Expr) Node { return Filter{In: scan("a"), Pred: p} }
	for _, tc := range []struct {
		name string
		a, b Node
	}{
		{"node type", Filter{In: scan("a"), Pred: C("a")}, Map{In: scan("a"), Outs: []NamedExpr{{E: C("a")}}}},
		{"expression type", filter(Not{E: C("a")}), filter(Between{E: C("a")})},
		{"int vs float literal", filter(I(3)), filter(F(3))},
		{"float zero sign", filter(F(0)), filter(F(math.Copysign(0, -1)))},
		{"column order", scan("a", "b"), scan("b", "a")},
		{"name boundaries", scan("ab", "c"), scan("a", "bc")},
		{"semi", join(false), join(true)},
		{"domains present", grouped(), grouped(Domain{0, 4})},
		{"domain bound", grouped(Domain{0, 4}), grouped(Domain{0, 5})},
		{"agg func", agg(scan("a"), Sum, C("a")), agg(scan("a"), Max, C("a"))},
		{"count of nothing", agg(scan("a"), Count, nil), agg(scan("a"), Count, C("a"))},
		{"in-list value", filter(InList{E: C("a"), Vs: []int64{1, 2}}), filter(InList{E: C("a"), Vs: []int64{1, 3}})},
		{"in-list length", filter(InList{E: C("a"), Vs: []int64{1, 2}}), filter(InList{E: C("a"), Vs: []int64{1, 2, 0}})},
		{"operator", filter(B(Add, C("a"), I(1))), filter(B(Sub, C("a"), I(1)))},
		{"operand order", filter(B(Lt, C("a"), C("b"))), filter(B(Lt, C("b"), C("a")))},
	} {
		ka, okA := appendNode(nil, tc.a, nil)
		kb, okB := appendNode(nil, tc.b, nil)
		if !okA || !okB {
			t.Fatalf("%s: encoding refused a plan type", tc.name)
		}
		if bytes.Equal(ka, kb) {
			t.Errorf("%s: %#v and %#v encode alike", tc.name, tc.a, tc.b)
		}
		again, _ := appendNode(nil, tc.a, nil)
		if !bytes.Equal(ka, again) {
			t.Errorf("%s: one root encodes two ways", tc.name)
		}
	}
	if _, ok := appendNode(nil, &Scan{Table: "t"}, nil); ok {
		t.Error("a node type the encoding does not know was encoded")
	}
}
