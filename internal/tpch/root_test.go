package tpch

import (
	"slices"
	"testing"

	"voodoo/internal/core"
	"voodoo/internal/rel"
	"voodoo/internal/sql"
	"voodoo/internal/storage"
	"voodoo/internal/trace"
)

// concurrentSQL holds the four lineitem statements of the benchmark's
// sql-concurrent workload.
var concurrentSQL = []string{
	"SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
	"SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_price, AVG(l_discount) AS avg_disc, COUNT(*) AS n FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
	"SELECT o_orderpriority, COUNT(*) AS n, SUM(l_extendedprice) AS price FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE l_quantity < 10 GROUP BY o_orderpriority ORDER BY o_orderpriority",
	"SELECT COUNT(*) AS n FROM lineitem WHERE l_shipmode IN ('AIR', 'RAIL') AND l_quantity < 30",
}

// shortSQL holds one text of each of the benchmark's seven sql-short
// shapes, with literals of its own.
var shortSQL = []string{
	"SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < 7 AND n_nationkey <> 1003",
	"SELECT n_regionkey, COUNT(*) AS n, MAX(n_nationkey) AS hi FROM nation WHERE n_nationkey >= 3 AND n_nationkey <> 1004 GROUP BY n_regionkey ORDER BY n_regionkey",
	"SELECT COUNT(*) AS n, MIN(r_regionkey) AS lo, MAX(r_regionkey) AS hi FROM region WHERE r_regionkey <= 2 AND r_regionkey <> 1005",
	"SELECT n_regionkey, COUNT(*) AS n, MAX(s_suppkey) AS hi FROM supplier JOIN nation ON s_nationkey = n_nationkey WHERE s_suppkey <= 25 AND s_suppkey <> 100000007 GROUP BY n_regionkey ORDER BY n_regionkey",
	"SELECT COUNT(*) AS n FROM supplier WHERE s_suppkey > 100000009",
	"SELECT COUNT(*) AS n, SUM(s_acctbal) AS bal FROM supplier WHERE s_acctbal > 1500.000123",
	"SELECT s_nationkey, COUNT(*) AS n, AVG(s_acctbal) AS bal FROM supplier WHERE s_acctbal < 3000.000456 GROUP BY s_nationkey ORDER BY s_nationkey",
}

// cleanSQL holds one grouped, one join and one global sql-short shape.
var cleanSQL = []string{shortSQL[1], shortSQL[3], shortSQL[5]}

// joinCountSQL counts the rows of a join that carries no column.
const joinCountSQL = "SELECT COUNT(*) AS n FROM lineitem JOIN orders ON l_orderkey = o_orderkey"

// TestServedPlansVerifyClean: the sql-concurrent statements and the
// sql-short shapes of cleanSQL compile to plans the verifier has nothing
// to say about, not even a dead store (VP008): no pivot list for a grouped
// fold that keeps its scatter virtual, no match flag nothing reads, no
// filtered column only its own predicate reads.
func TestServedPlansVerifyClean(t *testing.T) {
	cat := cutCat()
	e := &rel.Engine{Cat: cat, Backend: rel.Compiled}
	for _, text := range append(slices.Clone(concurrentSQL), cleanSQL...) {
		stmt, err := sql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		q, err := sql.Plan(stmt, cat)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := e.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		for _, d := range pr.Plan().Verify() {
			t.Errorf("%s: %s", text, d)
		}
	}
}

// keyDomain is the number of key combinations of a root GroupAgg (or of
// the GroupAgg under a root Filter or Map): 1 for a global aggregate.
func keyDomain(cat *storage.Catalog, n rel.Node) int {
	if m, ok := n.(rel.Map); ok {
		n = m.In
	}
	if f, ok := n.(rel.Filter); ok {
		n = f.In
	}
	g := n.(rel.GroupAgg)
	k := 1
	for i, key := range g.Keys {
		d := rel.Domain{}
		if i < len(g.Domains) {
			d = g.Domains[i]
		}
		if d == (rel.Domain{}) {
			d = colDomain(cat, g.In, key)
		}
		k *= int(d.Max - d.Min + 1)
	}
	return k
}

// colDomain finds the scanned base column col under n and returns its
// min/max metadata.
func colDomain(cat *storage.Catalog, n rel.Node, col string) rel.Domain {
	var d *rel.Domain
	var walk func(rel.Node)
	walk = func(n rel.Node) {
		switch x := n.(type) {
		case rel.Scan:
			if st, ok := cat.Table(x.Table).Stats(col); ok && d == nil && slices.Contains(x.Cols, col) {
				d = &rel.Domain{Min: st.MinI, Max: st.MaxI}
			}
		case rel.Filter:
			walk(x.In)
		case rel.Map:
			walk(x.In)
		case rel.IndexJoin:
			walk(x.Probe)
			walk(x.Build)
		case rel.GroupAgg:
			walk(x.In)
		}
	}
	walk(n)
	if d == nil {
		panic("no scanned column " + col)
	}
	return *d
}

// TestCompactRoots: no TPC-H or served SQL root is expanded to the padded
// layout, and no plan has a second root. Every root is its aggregate's
// relation, one slot per key value (one for a global aggregate), so a run
// has one output step, which carries no more items than the root's key
// domain; a join that carries no column filters by its match flag, so its
// probe gather is read; and Q1, whose expansion to 59,755 slots per column
// takes 3.38 MB for four rows, materializes under 0.5 MB.
func TestCompactRoots(t *testing.T) {
	cat := cutCat()
	check := func(name string, q rel.Query) {
		var steps []trace.Step
		e := &rel.Engine{Cat: cat, Backend: rel.Compiled, TraceSink: func(tr *trace.Trace) { steps = tr.Steps }}
		if _, _, err := e.Run(q); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		domain := keyDomain(cat, q.Root)
		outputs, bytes := 0, int64(0)
		for _, s := range steps {
			bytes += s.MaterializedBytes
			if s.Kind != trace.KindOutput {
				continue
			}
			outputs++
			if s.Items > int64(domain) {
				t.Errorf("%s: output %s has %d items, over its key domain of %d", name, s.Name, s.Items, domain)
			}
		}
		if outputs != 1 {
			t.Errorf("%s: %d output steps, want the root relation alone", name, outputs)
		}
		if name == "q01" && bytes > 512<<10 {
			t.Errorf("q01 materializes %d bytes, want at most 0.5 MB", bytes)
		}
	}
	for _, num := range QueryNumbers {
		q, err := Plan(num, cat)
		if err != nil {
			t.Fatal(err)
		}
		check(queryName(num), q)
	}
	for _, text := range append(append(slices.Clone(concurrentSQL), shortSQL...), joinCountSQL) {
		stmt, err := sql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		q, err := sql.Plan(stmt, cat)
		if err != nil {
			t.Fatal(err)
		}
		check(text, q)
	}
}

// TestRatiosInPlan: Q8's mkt_share and Q14's promo_revenue are computed by
// the plan that runs, not after it. The lowered program's one root is the
// Upsert of the ratio, a Divide, and a step of the compiled run's trace
// (what -explain-analyze prints) executes that root.
func TestRatiosInPlan(t *testing.T) {
	for num, col := range map[int]string{8: "mkt_share", 14: "promo_revenue"} {
		q, err := Plan(num, testCat)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := rel.Lower(q, testCat)
		if err != nil {
			t.Fatal(err)
		}
		roots := prog.Roots()
		if len(roots) != 1 {
			t.Fatalf("q%d: %d roots, want 1", num, len(roots))
		}
		root := prog.Stmts[roots[0]]
		if root.Op != core.OpUpsert || root.Out[0] != col || prog.Stmts[root.Args[1]].Op != core.OpDivide {
			t.Errorf("q%d: root is %s of %v, want the Upsert of %s, a Divide", num, root.Op, root.Out, col)
		}
		var steps []trace.Step
		e := &rel.Engine{Cat: testCat, TraceSink: func(tr *trace.Trace) { steps = tr.Steps }}
		res, _, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(steps, func(s trace.Step) bool { return slices.Contains(s.Stmts, int(roots[0])) }) {
			t.Errorf("q%d: no traced step runs the root v%d", num, roots[0])
		}
		if got := res.Cols[len(res.Cols)-1]; got != col {
			t.Errorf("q%d: last column %q, want %q", num, got, col)
		}
	}
}
