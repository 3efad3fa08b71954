package sql

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"voodoo/internal/baseline/hyper"
	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/rel"
	"voodoo/internal/storage"
	"voodoo/internal/tpch"
)

// aggEngines are the four ways a query runs: the compiled plan in tiles and
// in element order, both on at most workers
// goroutines (0: GOMAXPROCS), the reference interpreter of the algebra, and
// the HyPer-style baseline, which shares none of their code.
func aggEngines(cat *storage.Catalog, workers int) map[string]rel.Runner {
	opt := compile.Options{Workers: workers}
	return map[string]rel.Runner{
		"compiled":        &rel.Engine{Cat: cat, Backend: rel.Compiled, Opt: opt},
		"compiled-interp": &rel.Engine{Cat: cat, Backend: rel.Compiled, Opt: opt, NoSpecialize: true},
		"interp":          &rel.Engine{Cat: cat, Backend: rel.Interpreted},
		"hyper":           &hyper.Engine{Cat: cat},
	}
}

// planSQL parses and plans one statement.
func planSQL(t *testing.T, cat *storage.Catalog, text string) rel.Query {
	t.Helper()
	stmt, err := Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	q, err := Plan(stmt, cat)
	if err != nil {
		t.Fatalf("plan %q: %v", text, err)
	}
	return q
}

// rows renders a result one line per row, columns in order, rows sorted:
// engines need not agree on the order of groups a query does not order.
func rows(res *rel.Result, tol float64) []string {
	var out []string
	for _, r := range res.Rows {
		var sb strings.Builder
		for _, c := range res.Cols {
			v := r[c]
			if tol > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) && v != 0 {
				// Rounded to the tolerance, in relative terms.
				e := math.Pow(10, math.Floor(math.Log10(math.Abs(v))))
				v = math.Round(v/e/tol) * e * tol
			}
			fmt.Fprintf(&sb, "%s=%v ", c, v)
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

// TestCountIgnoresInfAndNaN: a count counts rows, whatever they hold. It
// used to be lowered as value*0 + 1, which is NaN for a value of ±Inf or
// NaN, so COUNT(*), COUNT(x) and AVG(x) came out NaN on every Voodoo engine.
func TestCountIgnoresInfAndNaN(t *testing.T) {
	tbl := storage.NewTable("t")
	tbl.AddFloat("x", []float64{1, math.Inf(1), 3, math.NaN()})
	tbl.AddInt("g", []int64{0, 0, 1, 1})
	cat := storage.NewCatalog().Add(tbl)
	byG := []rel.OrderKey{{Col: "g"}}
	grouped := rel.GroupAgg{In: rel.Scan{Table: "t", Cols: []string{"x", "g"}}, Keys: []string{"g"},
		Aggs: []rel.AggSpec{
			{Func: rel.Count, As: "n"},
			{Func: rel.Count, E: rel.C("x"), As: "nx"},
			{Func: rel.Avg, E: rel.C("x"), As: "av"},
		}}
	global := rel.GroupAgg{In: rel.Scan{Table: "t", Cols: []string{"x", "g"}},
		Aggs: []rel.AggSpec{{Func: rel.Count, As: "n"}, {Func: rel.Count, E: rel.C("x"), As: "nx"}}}
	for _, tc := range []struct {
		name string
		q    rel.Query
		want string
	}{
		{"rel-grouped", rel.Query{Root: grouped, OrderBy: byG},
			"g=0 n=2 nx=2 av=+Inf |g=1 n=2 nx=2 av=NaN "},
		{"rel-global", rel.Query{Root: global}, "n=4 nx=4 "},
		{"sql-grouped", planSQL(t, cat, "SELECT g, COUNT(*) AS n, COUNT(x) AS nx, AVG(x) AS av FROM t GROUP BY g ORDER BY g"),
			"g=0 n=2 nx=2 av=+Inf |g=1 n=2 nx=2 av=NaN "},
		{"sql-global", planSQL(t, cat, "SELECT COUNT(*) AS n, COUNT(x) AS nx FROM t"), "n=4 nx=4 "},
	} {
		for name, e := range aggEngines(cat, 0) {
			res, _, err := e.Run(tc.q)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, name, err)
			}
			if got := strings.Join(rows(res, 0), "|"); got != tc.want {
				t.Errorf("%s %s:\ngot  %s\nwant %s", tc.name, name, got, tc.want)
			}
		}
	}
}

// TestCountOfFaultingExpression: a count computes nothing from its input's
// value, but the input is still evaluated — the interpreter runs every
// statement — so a count of a division by zero fails on every engine, not
// only on those that cannot fold the value away.
func TestCountOfFaultingExpression(t *testing.T) {
	tbl := storage.NewTable("t")
	tbl.AddInt("a", []int64{4, 6, 8, 9})
	tbl.AddInt("b", []int64{2, 0, 4, 3})
	tbl.AddFloat("x", []float64{1, 2, 3, 4})
	tbl.AddFloat("y", []float64{1, 1, 0, 2})
	tbl.AddInt("g", []int64{0, 0, 1, 1})
	cat := storage.NewCatalog().Add(tbl)
	for _, text := range []string{
		"SELECT COUNT(a / b) AS n FROM t",
		"SELECT g, COUNT(a / b) AS n FROM t GROUP BY g",
		"SELECT g, COUNT(a % b) AS n, SUM(a) AS s FROM t GROUP BY g",
		"SELECT g, COUNT(x / y) AS n FROM t GROUP BY g",
		"SELECT AVG(x / y) AS av FROM t",
	} {
		q := planSQL(t, cat, text)
		for name, e := range aggEngines(cat, 0) {
			res, _, err := e.Run(q)
			if err == nil || !strings.Contains(err.Error(), "by zero") {
				t.Errorf("%s on %s: err %v, result %v; want a division by zero", text, name, err, res)
			}
		}
	}
}

// TestHavingFaultsLikeWhere: HAVING is WHERE's expression language over the
// aggregate, so a division by zero in it fails as in WHERE, where a second
// evaluator once read it as 0.
func TestHavingFaultsLikeWhere(t *testing.T) {
	tbl := storage.NewTable("t")
	tbl.AddInt("a", []int64{4, 6, 8, 9})
	tbl.AddInt("g", []int64{0, 0, 1, 1})
	cat := storage.NewCatalog().Add(tbl)
	for _, text := range []string{
		"SELECT g, COUNT(*) AS n FROM t WHERE a / 0 > 1 GROUP BY g",
		"SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING n / 0 > 1",
		"SELECT COUNT(*) AS n FROM t HAVING n / 0 > 1",
	} {
		q := planSQL(t, cat, text)
		for name, e := range aggEngines(cat, 0) {
			res, _, err := e.Run(q)
			if err == nil || !strings.Contains(err.Error(), "by zero") {
				t.Errorf("%s on %s: err %v, result %v; want a division by zero", text, name, err, res)
			}
		}
	}
}

// TestHavingOverAggregates: HAVING without GROUP BY filters the one row of
// a global aggregate. Over no input rows the aggregate has no group and so
// no row to keep, whatever the predicate (the result without HAVING still
// reads one row of zeros, an AVG's too, from a WHERE that passes nothing
// or a table with no rows). Grouped, it reads an AVG as the division out
// and a dictionary key through its string.
func TestHavingOverAggregates(t *testing.T) {
	tbl := storage.NewTable("t")
	tbl.AddInt("a", []int64{4, 6, 8, 9})
	tbl.AddString("c", []string{"x", "y", "x", "y"})
	none := storage.NewTable("none")
	none.AddInt("a", []int64{})
	cat := storage.NewCatalog().Add(tbl).Add(none)
	for _, tc := range []struct{ text, want string }{
		{"SELECT COUNT(*) AS n, SUM(a) AS s FROM t HAVING n > 2", "n=4 s=27 "},
		{"SELECT COUNT(*) AS n, SUM(a) AS s FROM t HAVING s < 10", ""},
		{"SELECT COUNT(*) AS n FROM t WHERE a > 100 HAVING n = 0", ""},
		{"SELECT COUNT(*) AS n FROM t WHERE a > 100", "n=0 "},
		{"SELECT AVG(a) AS av, COUNT(*) AS n FROM t WHERE a > 100", "av=0 n=0 "},
		{"SELECT AVG(a) AS av, COUNT(*) AS n FROM none", "av=0 n=0 "},
		{"SELECT c, AVG(a) AS av FROM t GROUP BY c HAVING av > 6.5", "c=1 av=7.5 "},
		{"SELECT c, SUM(a) AS s FROM t GROUP BY c HAVING c = 'x' OR s < 0", "c=0 s=12 "},
	} {
		q := planSQL(t, cat, tc.text)
		for name, e := range aggEngines(cat, 0) {
			res, _, err := e.Run(q)
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.text, name, err)
			}
			if got := strings.Join(rows(res, 0), "|"); got != tc.want {
				t.Errorf("%s on %s: got %q, want %q", tc.text, name, got, tc.want)
			}
		}
	}
}

// TestDivisionOverUnreachedSlots: a HAVING that divides two aggregates
// divides only the groups the aggregate's relation holds. The relation has
// one slot per key value, and a slot no row reached is ε with a zero count
// stored behind it, where a compiled plan that divided would fail with
// "integer division by zero" while the interpreter and HyPer answer. A
// division never faults where its value is ε (DESIGN.md §8), a global
// aggregate over no rows included.
func TestDivisionOverUnreachedSlots(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
	engines := aggEngines(cat, 0)
	for _, tc := range []struct {
		text string
		rows int
	}{
		{"SELECT o_orderyear, SUM(o_custkey) AS s, COUNT(*) AS c FROM orders WHERE o_orderdate < 1500 GROUP BY o_orderyear HAVING s / c > 700", 5},
		{"SELECT SUM(o_custkey) AS s, COUNT(*) AS c FROM orders WHERE o_orderdate < 0 HAVING s / c > 1", 0},
	} {
		q := planSQL(t, cat, tc.text)
		var want []string
		for _, name := range []string{"interp", "compiled", "compiled-interp", "hyper"} {
			res, _, err := engines[name].Run(q)
			if err != nil {
				t.Errorf("%s on %s: %v", tc.text, name, err)
				continue
			}
			got := rows(res, 0)
			if want == nil {
				want = got
			}
			if len(got) != tc.rows || !slices.Equal(got, want) {
				t.Errorf("%s on %s: %q, want %d rows, the interpreter's %q", tc.text, name, got, tc.rows, want)
			}
		}
	}
}

// aggCatalog is the GROUP BY parity catalog: a fact table with a key whose
// domain has gaps (k, in 0..20 by 5), a dictionary string, a float, and a
// foreign key — odd for h = 0, even for h = 1 — some rows of which find no
// dim row: outside dim's key range, or in a hole of it.
func aggCatalog() *storage.Catalog {
	const n = 600
	k, h, fk := make([]int64, n), make([]int64, n), make([]int64, n)
	s, x := make([]string, n), make([]float64, n)
	colors := []string{"red", "green", "blue"}
	for i := range n {
		k[i] = int64(i%5) * 5
		h[i] = int64(i % 2)
		fk[i] = int64(i%21)*2 + 1 + h[i] // dim holds 1..40 but not the multiples of 7
		s[i] = colors[(i/3)%3]
		x[i] = float64(i%17)*0.37 - 1.5 + float64(i)/7
	}
	fact := storage.NewTable("fact")
	fact.AddInt("k", k)
	fact.AddInt("h", h)
	fact.AddInt("fk", fk)
	fact.AddString("s", s)
	fact.AddFloat("x", x)
	var dk, dv []int64
	for key := int64(1); key <= 40; key++ {
		if key%7 != 0 {
			dk, dv = append(dk, key), append(dv, key%4)
		}
	}
	dim := storage.NewTable("dim")
	dim.AddInt("dk", dk)
	dim.AddInt("dv", dv)
	return storage.NewCatalog().Add(fact).Add(dim)
}

// folds counts the controlled folds (other than selections) a query lowers
// to.
func folds(t *testing.T, cat *storage.Catalog, q rel.Query) int {
	t.Helper()
	prog, err := rel.Lower(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range prog.Stmts {
		if s.Op.IsFold() && s.Op != core.OpFoldSelect {
			n++
		}
	}
	return n
}

// TestGroupByParity runs GROUP BY shapes the aggregate lowering handles
// specially through sql → rel on every engine: duplicate aggregates, an AVG
// beside a SUM of one column (one fold each, shared), COUNT of a column a
// join leaves ε against COUNT(*), three keys — a dictionary string and a key
// domain with gaps among them — decoded from one group id, and groups whose
// every row a filtered join drops (SQL cannot filter a join's build side, so
// that one is a rel plan). The Voodoo engines agree to 1e-9 — the batch tier
// sums a group's partials per work item — and HyPer-style does too where its
// join semantics match; the fold counts pin the dedupe.
func TestGroupByParity(t *testing.T) {
	cat := aggCatalog()
	dropped := rel.Query{Root: rel.GroupAgg{
		In: rel.IndexJoin{
			Probe: rel.Scan{Table: "fact", Cols: []string{"fk", "h", "x"}}, ProbeKey: "fk",
			// h = 1 rows have even fk, whose dim rows the filter drops.
			Build:    rel.Filter{In: rel.Scan{Table: "dim", Cols: []string{"dk", "dv"}}, Pred: rel.B(rel.Eq, rel.B(rel.Mod, rel.C("dk"), rel.I(2)), rel.I(1))},
			BuildKey: "dk", Cols: []string{"dv"},
		},
		Keys: []string{"h"},
		Aggs: []rel.AggSpec{{Func: rel.Count, As: "n"}, {Func: rel.Sum, E: rel.C("x"), As: "sx"}, {Func: rel.Avg, E: rel.C("dv"), As: "adv"}},
	}}
	for _, tc := range []struct {
		name  string
		q     rel.Query
		folds int
		hyper bool // HyPer-style drops unmatched probe rows; Voodoo keeps them with ε build columns
		check func(t *testing.T, res *rel.Result)
	}{
		{"duplicates", planSQL(t, cat, "SELECT h, SUM(x) AS a, SUM(x) AS b, COUNT(*) AS n, COUNT(*) AS m, COUNT(h) AS c FROM fact GROUP BY h"),
			3, true, nil}, // SUM(x), COUNT(*) = COUNT(h), the group id
		{"avg-beside-sum", planSQL(t, cat, "SELECT h, AVG(x) AS av, SUM(x) AS s, COUNT(x) AS c, MIN(x) AS lo, MAX(x) AS hi FROM fact GROUP BY h"),
			5, true, nil}, // SUM(x), COUNT(*), MIN, MAX, the group id
		{"count-col-across-join", planSQL(t, cat, "SELECT h, COUNT(*) AS n, COUNT(dv) AS nd, SUM(dv) AS sd, AVG(dv) AS ad FROM fact JOIN dim ON fk = dk GROUP BY h"),
			4, false, func(t *testing.T, res *rel.Result) { // COUNT(*), COUNT(dv), SUM(dv), the group id
				for _, r := range res.Rows {
					if r["nd"] >= r["n"] || r["nd"] == 0 {
						t.Errorf("h=%v: COUNT(dv) = %v beside COUNT(*) = %v: every group has rows without a dim match", r["h"], r["nd"], r["n"])
					}
				}
			}},
		{"three-keys", planSQL(t, cat, "SELECT k, s, h, SUM(x) AS sx, COUNT(*) AS n FROM fact GROUP BY k, s, h"),
			3, true, func(t *testing.T, res *rel.Result) {
				if len(res.Rows) != 5*3*2 {
					t.Errorf("%d groups, want 30", len(res.Rows))
				}
			}},
		{"dead-groups", dropped, 5, true, func(t *testing.T, res *rel.Result) { // COUNT(*), SUM(x), SUM(dv), COUNT(dv), the group id
			if len(res.Rows) != 1 || res.Rows[0]["h"] != 0 {
				t.Errorf("groups %v, want h = 0 alone: every h = 1 row's join partner is filtered out", res.Rows)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := folds(t, cat, tc.q); got != tc.folds {
				t.Errorf("%d folds, want %d", got, tc.folds)
			}
			ref, _, err := (&rel.Engine{Cat: cat, Backend: rel.Interpreted}).Run(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				tc.check(t, ref)
			}
			want := strings.Join(rows(ref, 1e-9), "\n")
			for name, e := range aggEngines(cat, 0) {
				if name == "hyper" && !tc.hyper {
					continue
				}
				res, _, err := e.Run(tc.q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := strings.Join(rows(res, 1e-9), "\n"); got != want {
					t.Errorf("%s disagrees with interp:\ngot\n%s\nwant\n%s", name, got, want)
				}
			}
		})
	}
}

// TestGlobalFoldThreshold: a global aggregate over more than 2 × 1024 rows
// folds hierarchically — about 1024 runs of ⌈n/1024⌉ rows, then the partials —
// and one over 2048 rows in a single run. Either way the program fixes the
// order of every float sum, so the compiled engines and the interpreter
// agree to the bit, and HyPer-style, summing row by row, to 1e-9. A filtered
// sum is the exception: its filter-fold sums the selected rows of each run,
// then the partials (DESIGN §8), where the interpreter sums the selected
// rows in one pass. The compiled engines agree to the bit at any worker
// count, since the runs are fixed at plan time; the interpreter agrees to
// the benchmark's 1e-6 relative tolerance (measured: within 8e-16).
func TestGlobalFoldThreshold(t *testing.T) {
	for _, n := range []int{2048, 2049} {
		// z is all −0.0: its sum is −0.0 on the interpreter, which starts
		// from its first value, so the compiled folds must start from the
		// additive identity −0.0, in one run and over the partials of many.
		x, z := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = 1/float64(i+3) + float64(i%13)*1e6
			z[i] = math.Copysign(0, -1)
		}
		tbl := storage.NewTable("big")
		tbl.AddFloat("x", x)
		tbl.AddFloat("z", z)
		cat := storage.NewCatalog().Add(tbl)
		q := planSQL(t, cat, "SELECT SUM(x) AS s, COUNT(*) AS n, MIN(x) AS lo, MAX(x) AS hi, AVG(x) AS av, SUM(z) AS sz FROM big")
		// Single: SUM, COUNT, MIN, MAX, SUM(z). Hierarchical: each twice.
		if got, want := folds(t, cat, q), map[int]int{2048: 5, 2049: 10}[n]; got != want {
			t.Errorf("n=%d: %d folds, want %d", n, got, want)
		}
		exact := ""
		for _, name := range []string{"interp", "compiled", "compiled-interp", "hyper"} {
			res, _, err := aggEngines(cat, 0)[name].Run(q)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			r := res.Rows[0]
			got := fmt.Sprintf("%x %v %v %v %x %x", math.Float64bits(r["s"]), r["n"], r["lo"], r["hi"], math.Float64bits(r["av"]), math.Float64bits(r["sz"]))
			switch {
			case exact == "":
				exact = got
			case name == "hyper":
				if rel := math.Abs(r["s"]/res0(t, cat, q) - 1); rel > 1e-9 || r["n"] != float64(n) {
					t.Errorf("n=%d hyper: sum off by %g relative, count %v", n, rel, r["n"])
				}
			case got != exact:
				t.Errorf("n=%d %s: %s, interp %s", n, name, got, exact)
			}
		}

		q = planSQL(t, cat, "SELECT SUM(x) AS s FROM big WHERE x > 2500000")
		want, exact, worst, ffolds := res0(t, cat, q), "", 0.0, 0
		for _, workers := range []int{1, 4} {
			engines := aggEngines(cat, workers)
			engines["compiled"].(*rel.Engine).PlanSink = func(p *compile.Plan) {
				for _, f := range p.Kernel().Frags {
					if strings.HasPrefix(f.Name, "ffold_") {
						ffolds++
					}
				}
			}
			for _, name := range []string{"compiled", "compiled-interp"} {
				res, _, err := engines[name].Run(q)
				if err != nil {
					t.Fatalf("n=%d filtered %s workers=%d: %v", n, name, workers, err)
				}
				s := res.Rows[0]["s"]
				if got := fmt.Sprintf("%x", math.Float64bits(s)); exact == "" {
					exact = got
				} else if got != exact {
					t.Errorf("n=%d filtered %s workers=%d: %s, compiled workers=1 %s", n, name, workers, got, exact)
				}
				worst = max(worst, math.Abs(s/want-1))
			}
		}
		if ffolds != 2 {
			t.Errorf("n=%d filtered: %d filter-fold fragments over two runs, want 1 each", n, ffolds)
		}
		if worst > 1e-6 {
			t.Errorf("n=%d filtered: sum off the interpreter's by %g relative", n, worst)
		}
		t.Logf("n=%d filtered SUM(x): compiled within %g relative of interp", n, worst)
	}
}

// res0 is the interpreter's SUM of q.
func res0(t *testing.T, cat *storage.Catalog, q rel.Query) float64 {
	t.Helper()
	res, _, err := (&rel.Engine{Cat: cat, Backend: rel.Interpreted}).Run(q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0]["s"]
}

// edgeCatalog holds a fact table whose groups exercise the second half of a
// grouped aggregation: g0..g7 each fill a contiguous block of 80 rows, so
// each is missing from most work items' partial tables, and g8 takes every
// 97th row, so it is in a few. The float x holds all-−0.0 and +0/−0 groups,
// ±Inf, NaN, subnormals and an overflow; the foreign key fk misses dim for
// some rows, leaving dv (itself holding −0.0, NaN and ±Inf) ε there, and for
// every row of g4. Every other value is dyadic, so that each group's sum is
// exact in any order: the compiled engines sum a group per work item and
// then across them, the interpreter row by row (TestGroupByParity pins that
// rounding difference at 1e-9).
func edgeCatalog() *storage.Catalog {
	const n = 640
	g, v, fk := make([]int64, n), make([]int64, n), make([]int64, n)
	x := make([]float64, n)
	negZero := math.Copysign(0, -1)
	for i := range n {
		j := i % 80
		g[i] = int64(i / 80)
		v[i] = int64(i*7919%1000) - 500
		fk[i] = int64(i % 50)
		switch g[i] {
		case 0:
			x[i] = negZero
		case 1:
			x[i] = map[int]float64{3: math.Inf(1), 50: math.Inf(-1)}[j] + float64(j)*0.5
		case 2:
			x[i] = float64(j)
			if j == 7 {
				x[i] = math.NaN()
			}
		case 3:
			x[i] = -float64(j)
			if j == 79 {
				x[i] = math.Inf(1)
			}
		case 4:
			x[i] = negZero
			if j%2 == 1 {
				x[i] = math.SmallestNonzeroFloat64 * float64(j%3)
			}
			fk[i] = int64(5 * (j % 10)) // every one a hole of dim
		case 5:
			x[i] = math.Copysign(0, float64(j%2)-0.5)
		case 6:
			x[i] = 1
			if j%40 == 0 {
				x[i] = 1e308 // two of them overflow in any order
			}
		default:
			x[i] = float64(j)*0.25 - 3
		}
		if i%97 == 0 {
			g[i] = 8
			x[i] = float64(i)
			if i == 291 {
				x[i] = math.NaN()
			}
		}
	}
	fact := storage.NewTable("e")
	fact.AddInt("g", g)
	fact.AddInt("v", v)
	fact.AddInt("fk", fk)
	fact.AddFloat("x", x)
	var dk []int64
	var dv []float64
	for key := int64(0); key < 50; key++ {
		if key%5 == 0 {
			continue
		}
		val := float64(key) * 0.25
		switch {
		case key%7 == 0:
			val = negZero
		case key == 13:
			val = math.NaN()
		case key == 17:
			val = math.Inf(1)
		case key == 19:
			val = math.Inf(-1)
		}
		dk, dv = append(dk, key), append(dv, val)
	}
	dim := storage.NewTable("dim")
	dim.AddInt("dk", dk)
	dim.AddFloat("dv", dv)
	return storage.NewCatalog().Add(fact).Add(dim)
}

// bits renders a result one line per row, every value by its bits (so −0.0
// and +0.0 differ), rows sorted. With anyNaN every NaN renders alike;
// otherwise NaNs compare by payload.
func bits(res *rel.Result, anyNaN bool) []string {
	var out []string
	for _, r := range res.Rows {
		var sb strings.Builder
		for _, c := range res.Cols {
			if anyNaN && math.IsNaN(r[c]) {
				fmt.Fprintf(&sb, "%s=NaN ", c)
				continue
			}
			fmt.Fprintf(&sb, "%s=%x ", c, math.Float64bits(r[c]))
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

// TestGroupByEdgeValues runs SUM, MIN, MAX, AVG and COUNT per group over
// the edge values of edgeCatalog. The grouped fold's second half folds
// every work item's partial of a group, the empty ones included: they must
// leave −0.0, ±Inf, NaN and ε where the reference interpreter puts them. So
// the compiled engines, in tiles and in element order, at 1 and 4 workers,
// agree to the bit with each other and with the interpreter. One exception: a NaN's payload after MIN or MAX
// records the order the fold met the other values (Go's min and max OR
// their operands' bits into a NaN), and the compiled engines meet them per
// work item, so against the interpreter any NaN is a NaN. The HyPer-style
// baseline is not compared: its MIN and MAX skip NaN and its sums start at
// +0.
func TestGroupByEdgeValues(t *testing.T) {
	cat := edgeCatalog()
	for _, tc := range []struct{ name, text string }{
		{"float", "SELECT g, SUM(x) AS s, MIN(x) AS lo, MAX(x) AS hi, AVG(x) AS av, COUNT(*) AS n, COUNT(x) AS c FROM e GROUP BY g"},
		{"int", "SELECT g, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS av, COUNT(v) AS c FROM e GROUP BY g"},
		{"min-max", "SELECT g, MIN(x) AS lo, MAX(x) AS hi FROM e GROUP BY g"},
		{"empty-across-join", "SELECT g, SUM(dv) AS s, MIN(dv) AS lo, MAX(dv) AS hi, AVG(dv) AS av, COUNT(dv) AS c, COUNT(*) AS n FROM e JOIN dim ON fk = dk GROUP BY g"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := planSQL(t, cat, tc.text)
			ref, _, err := aggEngines(cat, 0)["interp"].Run(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Rows) != 9 {
				t.Fatalf("%d groups, want 9", len(ref.Rows))
			}
			want := strings.Join(bits(ref, true), "\n")
			exact := ""
			for _, workers := range []int{1, 4} {
				engines := aggEngines(cat, workers)
				for _, name := range []string{"compiled", "compiled-interp"} {
					res, _, err := engines[name].Run(q)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					if got := strings.Join(bits(res, true), "\n"); got != want {
						t.Errorf("%s workers=%d disagrees with interp:\ngot\n%s\nwant\n%s\n(values: %v)",
							name, workers, got, want, rows(res, 0))
					}
					got := strings.Join(bits(res, false), "\n")
					if exact == "" {
						exact = got
					} else if got != exact {
						t.Errorf("%s workers=%d disagrees with compiled workers=1:\ngot\n%s\nwant\n%s",
							name, workers, got, exact)
					}
				}
			}
		})
	}
}

// TestComposedSelectionKeepsFaults: a gather through a selection re-indexes
// the projections it reads onto the selected rows, evaluating each only
// there — except one that can fault, which is computed over every row first,
// as the interpreter computes it before selecting. So SUM(a / b) fails with
// the same error on every engine although b is zero only on rows the WHERE
// rejects, while SUM(a * b) under the same WHERE answers bit for bit and
// compiles to no mat_* fragment. The error texts are each engine's own (the
// interpreter names the statement); the compiled engines' agree. x is
// dyadic, so its sums are exact in any order: the compiled engines sum a
// filtered column per run of the selection, the interpreter row by row.
func TestComposedSelectionKeepsFaults(t *testing.T) {
	const n = 3000
	a, b, c := make([]int64, n), make([]int64, n), make([]int64, n)
	x := make([]float64, n)
	for i := range n {
		a[i], b[i], c[i] = int64(i*7919%1000)-500, int64(i%9)+1, int64(i%4)
		x[i] = float64(i%17)*0.25 - 1.5
		if c[i] == 0 {
			b[i] = 0 // only on rows c > 0 rejects
		}
	}
	tbl := storage.NewTable("t")
	tbl.AddInt("a", a)
	tbl.AddInt("b", b)
	tbl.AddInt("c", c)
	tbl.AddFloat("x", x)
	cat := storage.NewCatalog().Add(tbl)
	engines := aggEngines(cat, 0)
	names := []string{"interp", "compiled", "compiled-interp"}

	q := planSQL(t, cat, "SELECT SUM(a / b) AS s FROM t WHERE c > 0")
	var compiled error
	for _, name := range names {
		res, _, err := engines[name].Run(q)
		switch {
		case err == nil || !strings.Contains(err.Error(), "by zero"):
			t.Errorf("SUM(a / b) on %s: err %v, result %v; want a division by zero", name, err, res)
		case name == "interp":
		case compiled == nil:
			compiled = err
		case err.Error() != compiled.Error():
			t.Errorf("SUM(a / b) on %s: %v, compiled %v", name, err, compiled)
		}
	}

	q = planSQL(t, cat, "SELECT SUM(a * b) AS s, SUM(x * b) AS sx, COUNT(*) AS n FROM t WHERE c > 0")
	mats := 0
	engines["compiled"].(*rel.Engine).PlanSink = func(p *compile.Plan) {
		for _, f := range p.Kernel().Frags {
			if strings.HasPrefix(f.Name, "mat_") {
				mats++
			}
		}
	}
	want := ""
	for _, name := range names {
		res, _, err := engines[name].Run(q)
		if err != nil {
			t.Fatalf("SUM(a * b) on %s: %v", name, err)
		}
		r := res.Rows[0]
		got := fmt.Sprintf("%x %x %v", math.Float64bits(r["s"]), math.Float64bits(r["sx"]), r["n"])
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("SUM(a * b) on %s: %s, interp %s", name, got, want)
		}
	}
	if mats != 0 {
		t.Errorf("SUM(a * b): %d mat_* fragments, want the products composed into the filter-fold", mats)
	}
}

// TestComposedSelectionKeepsFaultsGrouped: the same division under a TPC-H
// WHERE, where a global and a grouped aggregate part ways. The global
// aggregate projects l_extendedprice / l_discount over every row before it
// selects, so it faults on the rows without a discount, on every engine. A
// GROUP BY selects first: the interpreter divides only the selected rows,
// and the compiled grouped fold tests the group id's validity — which
// carries the WHERE — before it divides, so all three answer alike.
func TestComposedSelectionKeepsFaultsGrouped(t *testing.T) {
	engines := aggEngines(cat, 0)
	names := []string{"interp", "compiled", "compiled-interp"}
	q := planSQL(t, cat, "SELECT SUM(l_extendedprice / l_discount) AS s FROM lineitem WHERE l_discount > 0")
	for _, name := range names {
		if res, _, err := engines[name].Run(q); err == nil || !strings.Contains(err.Error(), "by zero") {
			t.Errorf("global SUM(l_extendedprice / l_discount) on %s: err %v, result %v; want a division by zero", name, err, res)
		}
	}
	q = planSQL(t, cat, "SELECT l_returnflag, SUM(l_extendedprice / l_discount) AS s, COUNT(*) AS n "+
		"FROM lineitem WHERE l_discount > 0 GROUP BY l_returnflag")
	var want []string
	for _, name := range names {
		res, _, err := engines[name].Run(q)
		if err != nil {
			t.Fatalf("grouped SUM(l_extendedprice / l_discount) on %s: %v", name, err)
		}
		got := rows(res, 1e-9)
		if len(got) == 0 {
			t.Fatalf("grouped SUM(l_extendedprice / l_discount) on %s: no groups", name)
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Errorf("grouped SUM(l_extendedprice / l_discount) on %s: %v, interp %v", name, got, want)
		}
	}
}
