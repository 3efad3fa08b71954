package rel

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/storage"
	"voodoo/internal/verify"
)

// testCatalog builds a small orders/customers catalog with known contents.
func testCatalog() *storage.Catalog {
	cust := storage.NewTable("cust")
	cust.AddInt("ckey", []int64{100, 101, 102, 103})
	cust.AddInt("nation", []int64{0, 1, 0, 1})
	cust.AddString("name", []string{"ann", "bob", "cat", "dan"})

	ord := storage.NewTable("ord")
	ord.AddInt("okey", []int64{1, 2, 3, 4, 5, 6})
	ord.AddInt("ckey", []int64{100, 101, 100, 103, 102, 102})
	ord.AddFloat("total", []float64{10, 20, 30, 40, 50, 60})
	ord.AddInt("prio", []int64{1, 2, 1, 3, 2, 1})

	return storage.NewCatalog().Add(cust).Add(ord)
}

func engines(cat *storage.Catalog) map[string]*Engine {
	return map[string]*Engine{
		"compiled":   {Cat: cat, Backend: Compiled},
		"predicated": {Cat: cat, Backend: Compiled, Opt: compile.Options{Predication: true}},
		"interp":     {Cat: cat, Backend: Interpreted},
		"bulk":       {Cat: cat, Backend: BulkCompiled},
	}
}

// runAll executes q on every backend and checks they agree; returns the
// compiled result.
func runAll(t *testing.T, cat *storage.Catalog, q Query) *Result {
	t.Helper()
	var ref *Result
	for name, e := range engines(cat) {
		res, _, err := e.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !sameResult(ref, res) {
			t.Fatalf("%s disagrees:\nref:\n%s\ngot:\n%s", name, ref, res)
		}
	}
	return ref
}

func sameResult(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		for _, c := range a.Cols {
			if math.Abs(a.Rows[i][c]-b.Rows[i][c]) > 1e-9 {
				return false
			}
		}
	}
	return true
}

func wantRow(t *testing.T, r Row, want map[string]float64) {
	t.Helper()
	for k, v := range want {
		if math.Abs(r[k]-v) > 1e-9 {
			t.Errorf("row[%q] = %g, want %g (row %v)", k, r[k], v, r)
		}
	}
}

// TestResultStringSeparatesCells: a cell of 20 characters or more, a
// column name or a value, still has a space before the next cell.
func TestResultStringSeparatesCells(t *testing.T) {
	r := &Result{Cols: []string{"sum_of_order_keys_xx", "n"},
		Rows: []Row{{"sum_of_order_keys_xx": 112507500112507504, "n": 15000}}}
	for _, line := range strings.Split(strings.TrimSpace(r.String()), "\n") {
		if cells := strings.Fields(line); len(cells) != 2 {
			t.Errorf("line %q reads as %d cells, want 2", line, len(cells))
		}
	}
}

func TestGlobalAggregate(t *testing.T) {
	res := runAll(t, testCatalog(), Query{Root: GroupAgg{
		In:   Scan{Table: "ord", Cols: []string{"total"}},
		Aggs: []AggSpec{{Func: Sum, E: C("total"), As: "s"}, {Func: Count, As: "n"}},
	}})
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	wantRow(t, res.Rows[0], map[string]float64{"s": 210, "n": 6})
}

func TestFilteredAggregate(t *testing.T) {
	res := runAll(t, testCatalog(), Query{Root: GroupAgg{
		In: Filter{
			In:   Scan{Table: "ord", Cols: []string{"total", "prio"}},
			Pred: B(Eq, C("prio"), I(1)),
		},
		Aggs: []AggSpec{{Func: Sum, E: C("total"), As: "s"}, {Func: Count, As: "n"}},
	}})
	wantRow(t, res.Rows[0], map[string]float64{"s": 100, "n": 3})
}

// TestFilterGathersWhatItsCopiesRead: a filter gathers only the columns
// read above it, and a filter lowered once for two consumers gathers what
// either reads: prio and the count's anchor okey for the outer filter,
// total for the maximum that filter compares with. Its own predicate's
// ckey stays behind.
func TestFilterGathersWhatItsCopiesRead(t *testing.T) {
	f := Filter{In: Scan{Table: "ord", Cols: []string{"okey", "ckey", "total", "prio"}},
		Pred: B(Gt, C("ckey"), I(100))}
	top := Agg{G: &GroupAgg{In: Map{In: f, Outs: []NamedExpr{{Name: "t", E: C("total")}}},
		Aggs: []AggSpec{{Func: Max, E: C("t"), As: "top"}}}}
	q := Query{Root: GroupAgg{
		In:   Filter{In: f, Pred: B(Gt, B(Mul, C("prio"), I(25)), top)},
		Aggs: []AggSpec{{Func: Count, As: "n"}, {Func: Sum, E: C("prio"), As: "p"}},
	}}
	// ckey > 100 keeps okey 2, 4, 5, 6 (totals up to 60); prio*25 > 60
	// keeps prio 3.
	res := runAll(t, testCatalog(), q)
	wantRow(t, res.Rows[0], map[string]float64{"n": 1, "p": 3})
	cat := testCatalog()
	prog, err := Lower(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	model, _ := verify.Derive(prog, cat)
	var gathered [][]string
	for _, s := range prog.Stmts {
		if s.Op == core.OpGather && prog.Stmts[s.Args[1]].Op == core.OpFoldSelect {
			gathered = append(gathered, model[s.ID].Names)
		}
	}
	// The shared filter, and the outer one, which gathers the aggregate's
	// inputs computed below it.
	want := [][]string{{"okey", "total", "prio"}, {"__a0", "__a1"}}
	if !slices.EqualFunc(gathered, want, slices.Equal) {
		t.Errorf("filters gather %v, want %v:\n%s", gathered, want, prog)
	}
}

func TestMapExpression(t *testing.T) {
	res := runAll(t, testCatalog(), Query{Root: GroupAgg{
		In: Map{
			In:   Scan{Table: "ord", Cols: []string{"total"}},
			Outs: []NamedExpr{{Name: "x", E: B(Mul, C("total"), F(0.5))}},
		},
		Aggs: []AggSpec{{Func: Sum, E: C("x"), As: "s"}},
	}})
	wantRow(t, res.Rows[0], map[string]float64{"s": 105})
}

func TestGroupBy(t *testing.T) {
	res := runAll(t, testCatalog(), Query{
		Root: GroupAgg{
			In:   Scan{Table: "ord", Cols: []string{"total", "prio"}},
			Keys: []string{"prio"},
			Aggs: []AggSpec{
				{Func: Sum, E: C("total"), As: "s"},
				{Func: Count, As: "n"},
				{Func: Min, E: C("total"), As: "lo"},
				{Func: Max, E: C("total"), As: "hi"},
				{Func: Avg, E: C("total"), As: "avg"},
			},
		},
		OrderBy: []OrderKey{{Col: "prio"}},
	})
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3\n%s", len(res.Rows), res)
	}
	wantRow(t, res.Rows[0], map[string]float64{"prio": 1, "s": 100, "n": 3, "lo": 10, "hi": 60, "avg": 100.0 / 3})
	wantRow(t, res.Rows[1], map[string]float64{"prio": 2, "s": 70, "n": 2, "lo": 20, "hi": 50, "avg": 35})
	wantRow(t, res.Rows[2], map[string]float64{"prio": 3, "s": 40, "n": 1, "lo": 40, "hi": 40, "avg": 40})
}

func TestJoinGroup(t *testing.T) {
	// Sum of order totals per customer nation.
	res := runAll(t, testCatalog(), Query{
		Root: GroupAgg{
			In: IndexJoin{
				Probe:    Scan{Table: "ord", Cols: []string{"ckey", "total"}},
				ProbeKey: "ckey",
				Build:    Scan{Table: "cust", Cols: []string{"ckey", "nation"}},
				BuildKey: "ckey",
				Cols:     []string{"nation"},
			},
			Keys: []string{"nation"},
			Aggs: []AggSpec{{Func: Sum, E: C("total"), As: "s"}},
		},
		OrderBy: []OrderKey{{Col: "nation"}},
	})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2\n%s", len(res.Rows), res)
	}
	// nation 0: ann(10+30) + cat(50+60) = 150; nation 1: bob(20) + dan(40) = 60.
	wantRow(t, res.Rows[0], map[string]float64{"nation": 0, "s": 150})
	wantRow(t, res.Rows[1], map[string]float64{"nation": 1, "s": 60})
}

func TestJoinFilteredBuild(t *testing.T) {
	// Only nation-0 customers: inner join drops bob and dan's orders.
	res := runAll(t, testCatalog(), Query{Root: GroupAgg{
		In: IndexJoin{
			Probe:    Scan{Table: "ord", Cols: []string{"ckey", "total"}},
			ProbeKey: "ckey",
			Build: Filter{
				In:   Scan{Table: "cust", Cols: []string{"ckey", "nation"}},
				Pred: B(Eq, C("nation"), I(0)),
			},
			BuildKey: "ckey",
			Cols:     []string{"nation"},
		},
		Aggs: []AggSpec{{Func: Sum, E: C("total"), As: "s"}, {Func: Count, As: "n"}},
	}})
	wantRow(t, res.Rows[0], map[string]float64{"s": 150, "n": 4})
}

func TestSemiJoin(t *testing.T) {
	// Orders of customers that exist in nation 1 (semi join).
	res := runAll(t, testCatalog(), Query{Root: GroupAgg{
		In: IndexJoin{
			Probe:    Scan{Table: "ord", Cols: []string{"ckey", "total"}},
			ProbeKey: "ckey",
			Build: Filter{
				In:   Scan{Table: "cust", Cols: []string{"ckey", "nation"}},
				Pred: B(Eq, C("nation"), I(1)),
			},
			BuildKey: "ckey",
			Semi:     true,
		},
		Aggs: []AggSpec{{Func: Sum, E: C("total"), As: "s"}},
	}})
	wantRow(t, res.Rows[0], map[string]float64{"s": 60})
}

// A HAVING is a Filter over the aggregate at the root.
func TestHavingAndLimit(t *testing.T) {
	res := runAll(t, testCatalog(), Query{
		Root: Filter{
			In: GroupAgg{
				In:   Scan{Table: "ord", Cols: []string{"total", "prio"}},
				Keys: []string{"prio"},
				Aggs: []AggSpec{{Func: Sum, E: C("total"), As: "s"}},
			},
			Pred: B(Gt, C("s"), F(50)),
		},
		OrderBy: []OrderKey{{Col: "s", Desc: true}},
		Limit:   1,
	})
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	wantRow(t, res.Rows[0], map[string]float64{"prio": 1, "s": 100})
}

func TestBetweenInListNot(t *testing.T) {
	res := runAll(t, testCatalog(), Query{Root: GroupAgg{
		In: Filter{
			In: Scan{Table: "ord", Cols: []string{"total", "prio", "okey"}},
			Pred: B(And,
				Between{E: C("total"), Lo: F(15), Hi: F(55)},
				B(And,
					InList{E: C("prio"), Vs: []int64{1, 2}},
					Not{E: B(Eq, C("okey"), I(3))})),
		},
		Aggs: []AggSpec{{Func: Count, As: "n"}},
	}})
	// total in [15,55]: orders 2,3,4,5; prio in {1,2}: drops order 4;
	// not okey=3: drops order 3 → orders 2 and 5.
	wantRow(t, res.Rows[0], map[string]float64{"n": 2})
}

func TestDictionaryKeyDecode(t *testing.T) {
	cat := testCatalog()
	e := &Engine{Cat: cat, Backend: Compiled}
	res, _, err := e.Run(Query{
		Root: GroupAgg{
			In: IndexJoin{
				Probe:    Scan{Table: "ord", Cols: []string{"ckey", "total"}},
				ProbeKey: "ckey",
				Build:    Scan{Table: "cust", Cols: []string{"ckey", "name"}},
				BuildKey: "ckey",
				Cols:     []string{"name"},
			},
			Keys: []string{"name"},
			Aggs: []AggSpec{{Func: Sum, E: C("total"), As: "s"}},
		},
		OrderBy: []OrderKey{{Col: "name"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Decode("name", res.Rows[0]["name"]); got != "ann" {
		t.Fatalf("decoded first group = %q, want ann", got)
	}
}

func TestErrorOnUnknownTable(t *testing.T) {
	e := &Engine{Cat: testCatalog(), Backend: Compiled}
	_, _, err := e.Run(Query{Root: GroupAgg{
		In:   Scan{Table: "nope", Cols: []string{"x"}},
		Aggs: []AggSpec{{Func: Count, As: "n"}},
	}})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestErrorOnUnknownColumn(t *testing.T) {
	e := &Engine{Cat: testCatalog(), Backend: Compiled}
	_, _, err := e.Run(Query{Root: GroupAgg{
		In:   Scan{Table: "ord", Cols: []string{"nope"}},
		Aggs: []AggSpec{{Func: Count, As: "n"}},
	}})
	if err == nil {
		t.Fatal("expected error")
	}
}

// TestRandomGroupQueries cross-checks grouped aggregation over random data
// on all backends against a direct Go computation.
func TestRandomGroupQueries(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 50 + r.Intn(200)
		groups := make([]int64, n)
		vals := make([]float64, n)
		want := map[int64]float64{}
		k := int64(2 + r.Intn(8))
		for i := range groups {
			groups[i] = r.Int63n(k)
			vals[i] = float64(r.Intn(1000)) / 10
			want[groups[i]] += vals[i]
		}
		tb := storage.NewTable("t")
		tb.AddInt("g", groups)
		tb.AddFloat("v", vals)
		cat := storage.NewCatalog().Add(tb)
		res := runAll(t, cat, Query{
			Root: GroupAgg{
				In:   Scan{Table: "t", Cols: []string{"g", "v"}},
				Keys: []string{"g"},
				Aggs: []AggSpec{{Func: Sum, E: C("v"), As: "s"}},
			},
			OrderBy: []OrderKey{{Col: "g"}},
		})
		if len(res.Rows) != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(res.Rows), len(want))
		}
		for _, row := range res.Rows {
			if math.Abs(row["s"]-want[int64(row["g"])]) > 1e-6 {
				t.Fatalf("trial %d: group %g sum %g, want %g", trial, row["g"], row["s"], want[int64(row["g"])])
			}
		}
	}
}

// TestRandomJoinQueriesAgainstHyper fuzzes join+group queries over random
// catalogs and cross-checks the Voodoo engines against the independent
// HyPer-style baseline... implemented here as a direct Go evaluation to
// avoid an import cycle with the baseline package.
func TestRandomJoinQueries(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		nDim := 4 + r.Intn(12)
		nFact := 40 + r.Intn(300)
		dimKey := make([]int64, nDim)
		dimGroup := make([]int64, nDim)
		k := int64(2 + r.Intn(5))
		for i := range dimKey {
			dimKey[i] = int64(i + 10) // offset keys exercise min-shifting
			dimGroup[i] = r.Int63n(k)
		}
		factFk := make([]int64, nFact)
		factV := make([]float64, nFact)
		for i := range factFk {
			factFk[i] = dimKey[r.Intn(nDim)]
			factV[i] = float64(r.Intn(100))
		}
		dim := storage.NewTable("dim")
		dim.AddInt("dkey", dimKey)
		dim.AddInt("grp", dimGroup)
		fact := storage.NewTable("fact")
		fact.AddInt("fk", factFk)
		fact.AddFloat("v", factV)
		cat := storage.NewCatalog().Add(dim).Add(fact)

		// Optionally filter the build side.
		var build Node = Scan{Table: "dim", Cols: []string{"dkey", "grp"}}
		buildFiltered := r.Intn(2) == 0
		if buildFiltered {
			build = Filter{In: build, Pred: B(Lt, C("grp"), I(k-1))}
		}
		q := Query{
			Root: GroupAgg{
				In: IndexJoin{
					Probe:    Scan{Table: "fact", Cols: []string{"fk", "v"}},
					ProbeKey: "fk",
					Build:    build,
					BuildKey: "dkey",
					Cols:     []string{"grp"},
				},
				Keys: []string{"grp"},
				Aggs: []AggSpec{
					{Func: Sum, E: C("v"), As: "s"},
					{Func: Count, As: "n"},
				},
			},
			OrderBy: []OrderKey{{Col: "grp"}},
		}
		res := runAll(t, cat, q)

		// Direct Go evaluation.
		grpOf := map[int64]int64{}
		alive := map[int64]bool{}
		for i := range dimKey {
			grpOf[dimKey[i]] = dimGroup[i]
			alive[dimKey[i]] = !buildFiltered || dimGroup[i] < k-1
		}
		wantS := map[int64]float64{}
		wantN := map[int64]float64{}
		for i := range factFk {
			if !alive[factFk[i]] {
				continue
			}
			g := grpOf[factFk[i]]
			wantS[g] += factV[i]
			wantN[g]++
		}
		if len(res.Rows) != len(wantS) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(res.Rows), len(wantS))
		}
		for _, row := range res.Rows {
			g := int64(row["grp"])
			if math.Abs(row["s"]-wantS[g]) > 1e-9 || row["n"] != wantN[g] {
				t.Fatalf("trial %d group %d: got (%g,%g) want (%g,%g)",
					trial, g, row["s"], row["n"], wantS[g], wantN[g])
			}
		}
	}
}

// TestLowerExposesProgram checks the inspection entry point.
func TestLowerExposesProgram(t *testing.T) {
	q := Query{Root: GroupAgg{
		In:   Scan{Table: "ord", Cols: []string{"total"}},
		Aggs: []AggSpec{{Func: Sum, E: C("total"), As: "s"}},
	}}
	prog, err := Lower(q, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stmts) == 0 {
		t.Fatal("empty program")
	}
	if _, err := Lower(Query{Root: Scan{Table: "nope", Cols: []string{"x"}}}, testCatalog()); err == nil {
		t.Fatal("expected error from Lower")
	}
}
