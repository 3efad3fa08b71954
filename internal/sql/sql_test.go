package sql

import (
	"errors"
	"math"
	"strings"
	"testing"

	"voodoo/internal/baseline/hyper"
	"voodoo/internal/rel"
	"voodoo/internal/tpch"
)

var cat = tpch.Generate(tpch.Config{SF: 0.002, Seed: 42})

func run(t *testing.T, src string) *rel.Result {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	q, err := Plan(stmt, cat)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	e := &rel.Engine{Cat: cat, Backend: rel.Compiled}
	res, _, err := e.Run(q)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT sum(x) FROM t WHERE a >= 1.5 AND b = 'hi'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	if toks[0].text != "SELECT" || toks[1].text != "SUM" {
		t.Fatalf("keyword casing wrong: %v %v", toks[0], toks[1])
	}
	if toks[3].text != "x" || toks[3].kind != tokIdent {
		t.Fatalf("ident wrong: %v", toks[3])
	}
	found := false
	for _, tk := range toks {
		if tk.kind == tokString && tk.text == "hi" {
			found = true
		}
	}
	if !found {
		t.Fatal("string literal not lexed")
	}
	_ = kinds
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("select 'unterminated"); err == nil {
		t.Error("expected unterminated string error")
	}
	if _, err := lex("select #"); err == nil {
		t.Error("expected bad character error")
	}
}

func TestParseShape(t *testing.T) {
	stmt, err := Parse(`SELECT l_shipmode, COUNT(*) AS n
		FROM lineitem JOIN orders ON l_orderkey = o_orderkey
		WHERE l_shipdate >= DATE '1994-01-01' AND l_quantity BETWEEN 1 AND 10
		GROUP BY l_shipmode ORDER BY n DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.From != "lineitem" || len(stmt.Joins) != 1 || stmt.Joins[0].Table != "orders" {
		t.Fatalf("bad from/joins: %+v", stmt)
	}
	if len(stmt.GroupBy) != 1 || stmt.Limit != 3 || !stmt.OrderBy[0].Desc {
		t.Fatalf("bad tail clauses: %+v", stmt)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"SELECT FROM t",
		"SELECT sum(x FROM t",
		"SELECT sum(x) t",
		"SELECT sum(x) FROM t WHERE",
		"SELECT sum(x) FROM t LIMIT x",
		"SELECT sum(x) FROM t extra",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

// TestQ6EquivalentSQL runs the SQL form of TPC-H Q6 and compares it with
// the hand-built plan.
func TestQ6EquivalentSQL(t *testing.T) {
	res := run(t, `SELECT SUM(l_extendedprice * l_discount) AS revenue
		FROM lineitem
		WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
		  AND l_discount BETWEEN 0.0499 AND 0.0701 AND l_quantity < 24`)
	q6, err := tpch.Plan(6, cat)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := (&rel.Engine{Cat: cat, Backend: rel.Compiled}).Run(q6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Rows[0]["revenue"]-want.Rows[0]["revenue"]) > 1e-6 {
		t.Fatalf("sql %g vs plan %g", res.Rows[0]["revenue"], want.Rows[0]["revenue"])
	}
}

func TestGroupByWithStrings(t *testing.T) {
	res := run(t, `SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS q
		FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (A, N, R)", len(res.Rows))
	}
	li := cat.Table("lineitem")
	var wantN [3]float64
	for i := 0; i < li.N; i++ {
		wantN[li.Col("l_returnflag").Int(i)]++
	}
	for i, r := range res.Rows {
		if r["n"] != wantN[i] {
			t.Errorf("flag %d count = %g, want %g", i, r["n"], wantN[i])
		}
	}
	if res.Decode("l_returnflag", res.Rows[0]["l_returnflag"]) != "A" {
		t.Errorf("first flag should decode to A")
	}
}

func TestStringPredicateAndJoin(t *testing.T) {
	res := run(t, `SELECT COUNT(*) AS n FROM lineitem
		JOIN orders ON l_orderkey = o_orderkey
		WHERE l_returnflag = 'R' AND o_orderpriority = '1-URGENT'`)
	li := cat.Table("lineitem")
	ord := cat.Table("orders")
	rCode, _ := li.Code("l_returnflag", "R")
	uCode, _ := ord.Code("o_orderpriority", "1-URGENT")
	prio := map[int64]int64{}
	for i := 0; i < ord.N; i++ {
		prio[ord.Col("o_orderkey").Int(i)] = ord.Col("o_orderpriority").Int(i)
	}
	var want float64
	for i := 0; i < li.N; i++ {
		if li.Col("l_returnflag").Int(i) == rCode &&
			prio[li.Col("l_orderkey").Int(i)] == uCode {
			want++
		}
	}
	if res.Rows[0]["n"] != want {
		t.Fatalf("count = %g, want %g", res.Rows[0]["n"], want)
	}
}

// TestJoinWithoutColumnsCountsMatches: a join that carries no column
// exists only to filter, so COUNT(*) counts the probe rows that have a
// match, on every engine. Every supplier key is a part key, but most part
// keys are no supplier's: the answer is the supplier count, not the part
// count. Every lineitem has its order, and HyPer's answer is the truth.
func TestJoinWithoutColumnsCountsMatches(t *testing.T) {
	sup, part := cat.Table("supplier"), cat.Table("part")
	if sup.N >= part.N {
		t.Fatalf("%d suppliers, %d parts: the test needs parts without a supplier", sup.N, part.N)
	}
	check := func(text string, want float64) {
		q := planSQL(t, cat, text)
		for name, e := range aggEngines(cat, 0) {
			res, _, err := e.Run(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := res.Rows[0]["n"]; got != want {
				t.Errorf("%s: %s counts %g, want %g", name, text, got, want)
			}
		}
	}
	check(`SELECT COUNT(*) AS n FROM part JOIN supplier ON p_partkey = s_suppkey`, float64(sup.N))
	text := `SELECT COUNT(*) AS n FROM lineitem JOIN orders ON l_orderkey = o_orderkey`
	res, _, err := (&hyper.Engine{Cat: cat}).Run(planSQL(t, cat, text))
	if err != nil {
		t.Fatal(err)
	}
	check(text, res.Rows[0]["n"])
}

func TestInListAndOr(t *testing.T) {
	res := run(t, `SELECT COUNT(*) AS n FROM lineitem
		WHERE l_shipmode IN ('AIR', 'RAIL') OR l_quantity > 49`)
	li := cat.Table("lineitem")
	air, _ := li.Code("l_shipmode", "AIR")
	rail, _ := li.Code("l_shipmode", "RAIL")
	var want float64
	for i := 0; i < li.N; i++ {
		m := li.Col("l_shipmode").Int(i)
		if m == air || m == rail || li.Col("l_quantity").Int(i) > 49 {
			want++
		}
	}
	if res.Rows[0]["n"] != want {
		t.Fatalf("count = %g, want %g", res.Rows[0]["n"], want)
	}
}

func TestUnknownStringMatchesNothing(t *testing.T) {
	res := run(t, `SELECT COUNT(*) AS n FROM lineitem WHERE l_shipmode = 'WARP DRIVE'`)
	if res.Rows[0]["n"] != 0 {
		t.Fatalf("count = %g, want 0", res.Rows[0]["n"])
	}
}

func TestPlanErrors(t *testing.T) {
	for src, wantSub := range map[string]string{
		`SELECT SUM(x) AS s FROM nope`:                                 "no table",
		`SELECT SUM(nope) AS s FROM lineitem`:                          "unknown column",
		`SELECT l_quantity FROM lineitem`:                              "GROUP BY",
		`SELECT l_quantity, COUNT(*) AS n FROM lineitem`:               "GROUP BY",
		`SELECT COUNT(*) AS n FROM lineitem ORDER BY nope`:             "not in the output",
		`SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity = 'five'`: "", // any error
	} {
		stmt, err := Parse(src)
		if err != nil {
			continue
		}
		_, err = Plan(stmt, cat)
		if err == nil {
			t.Errorf("expected plan error for %q", src)
			continue
		}
		if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%q: error %q does not mention %q", src, err, wantSub)
		}
	}
}

func TestAvgMinMax(t *testing.T) {
	res := run(t, `SELECT AVG(l_quantity) AS a, MIN(l_quantity) AS lo, MAX(l_quantity) AS hi
		FROM lineitem`)
	li := cat.Table("lineitem")
	var sum, lo, hi float64
	lo, hi = 1e18, -1e18
	for i := 0; i < li.N; i++ {
		q := float64(li.Col("l_quantity").Int(i))
		sum += q
		lo = math.Min(lo, q)
		hi = math.Max(hi, q)
	}
	r := res.Rows[0]
	if math.Abs(r["a"]-sum/float64(li.N)) > 1e-9 || r["lo"] != lo || r["hi"] != hi {
		t.Fatalf("avg/min/max wrong: %v (want avg %g lo %g hi %g)", r, sum/float64(li.N), lo, hi)
	}
}

func TestHavingClause(t *testing.T) {
	res := run(t, `SELECT l_returnflag, COUNT(*) AS n FROM lineitem
		GROUP BY l_returnflag HAVING n > 10000 ORDER BY n DESC`)
	li := cat.Table("lineitem")
	counts := map[int64]float64{}
	for i := 0; i < li.N; i++ {
		counts[li.Col("l_returnflag").Int(i)]++
	}
	want := 0
	for _, c := range counts {
		if c > 10000 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	for _, r := range res.Rows {
		if r["n"] <= 10000 {
			t.Errorf("having violated: %v", r)
		}
	}
}

func TestHavingErrors(t *testing.T) {
	stmt, err := Parse(`SELECT COUNT(*) AS n FROM lineitem HAVING nope > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Plan(stmt, cat); err == nil {
		t.Fatal("expected error for unknown having column")
	}
}

// TestBareCountStar is the regression test for SELECT COUNT(*) with no
// WHERE and no other column reference: the scan used to come out with
// zero columns and the lowerer crashed looking for a count anchor.
func TestBareCountStar(t *testing.T) {
	res := run(t, "SELECT COUNT(*) AS n FROM orders")
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	want := float64(cat.Table("orders").N)
	if got := res.Rows[0]["n"]; got != want {
		t.Fatalf("COUNT(*) = %v, want %v", got, want)
	}
}

// TestJoinBuildKeyMustBeUnique: an index join keeps one build row per key,
// so the JOIN-clause table must be the side whose key is unique. The
// orientation that builds on orders' repeated o_custkey used to return the
// last order per customer silently (counts summing to the customers, not the
// orders); it is a typed plan error naming the fix, and the other
// orientation counts every order.
func TestJoinBuildKeyMustBeUnique(t *testing.T) {
	total := func(res *rel.Result) (n float64) {
		for _, r := range res.Rows {
			n += r["n"]
		}
		return n
	}
	good := run(t, `SELECT c_mktsegment, COUNT(*) AS n FROM orders
		JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment`)
	if got, want := total(good), float64(cat.Table("orders").N); got != want {
		t.Errorf("orders JOIN customer counts %g rows, want every order (%g)", got, want)
	}

	stmt, err := Parse(`SELECT c_mktsegment, COUNT(*) AS n FROM customer
		JOIN orders ON c_custkey = o_custkey GROUP BY c_mktsegment`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Plan(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []rel.Backend{rel.Compiled, rel.Interpreted, rel.BulkCompiled} {
		_, _, err = (&rel.Engine{Cat: cat, Backend: backend}).Run(q)
		var bke *rel.BuildKeyError
		if !errors.As(err, &bke) {
			t.Fatalf("backend %v: customer JOIN orders: err = %v, want *rel.BuildKeyError", backend, err)
		}
		if bke.Key != "o_custkey" || bke.Rows != cat.Table("orders").N {
			t.Errorf("error names key %q over %d rows, want o_custkey over %d", bke.Key, bke.Rows, cat.Table("orders").N)
		}
		if !strings.Contains(err.Error(), "JOIN clause") {
			t.Errorf("error does not name the fix: %v", err)
		}
	}

	// The benchmark's join statements build on unique keys and still plan.
	for _, src := range []string{
		`SELECT o_orderpriority, COUNT(*) AS n FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority`,
		`SELECT n_name, COUNT(*) AS n FROM supplier JOIN nation ON s_nationkey = n_nationkey GROUP BY n_name`,
	} {
		run(t, src)
	}
}
