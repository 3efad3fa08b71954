package rel_test

import (
	"testing"

	"voodoo/internal/core"
	"voodoo/internal/rel"
	"voodoo/internal/sql"
)

// TestAvgConvertsOnlyIntegerSums: an AVG divides its sum in floats, and a
// sum that is float already, as AVG(s_acctbal)'s, is divided as it is; an
// integer sum is converted by one multiply by 1.0.
func TestAvgConvertsOnlyIntegerSums(t *testing.T) {
	cat := tpchCatalog()
	for col, want := range map[string]int{"s_acctbal": 0, "s_suppkey": 1} {
		prog, err := rel.Lower(rel.Query{Root: rel.GroupAgg{
			In:   rel.Scan{Table: "supplier", Cols: []string{"s_nationkey", col}},
			Keys: []string{"s_nationkey"},
			Aggs: []rel.AggSpec{{Func: rel.Avg, E: rel.C(col), As: "avg"}},
		}}, cat)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, s := range prog.Stmts {
			if s.Op != core.OpMultiply {
				continue
			}
			if k := prog.Stmts[s.Args[1]]; k.Op == core.OpConstant && k.IsFloat && k.FloatVal == 1 {
				got++
			}
		}
		if got != want {
			t.Errorf("AVG(%s) lowers %d multiplies by 1.0, want %d\n%s", col, got, want, prog)
		}
	}
}

// prepareCases are the benchmark's seven sql-short shapes, one text each,
// and a join that carries no column under a COUNT(*).
var prepareCases = []struct{ name, text string }{
	{"nation-count", "SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < 7 AND n_nationkey <> 1003"},
	{"nation-group", "SELECT n_regionkey, COUNT(*) AS n, MAX(n_nationkey) AS hi FROM nation WHERE n_nationkey >= 3 AND n_nationkey <> 1004 GROUP BY n_regionkey ORDER BY n_regionkey"},
	{"region-minmax", "SELECT COUNT(*) AS n, MIN(r_regionkey) AS lo, MAX(r_regionkey) AS hi FROM region WHERE r_regionkey <= 2 AND r_regionkey <> 1005"},
	{"supplier-join-nation", "SELECT n_regionkey, COUNT(*) AS n, MAX(s_suppkey) AS hi FROM supplier JOIN nation ON s_nationkey = n_nationkey WHERE s_suppkey <= 25 AND s_suppkey <> 100000007 GROUP BY n_regionkey ORDER BY n_regionkey"},
	{"supplier-out-of-range", "SELECT COUNT(*) AS n FROM supplier WHERE s_suppkey > 100000009"},
	{"supplier-sum", "SELECT COUNT(*) AS n, SUM(s_acctbal) AS bal FROM supplier WHERE s_acctbal > 1500.000123"},
	{"supplier-group", "SELECT s_nationkey, COUNT(*) AS n, AVG(s_acctbal) AS bal FROM supplier WHERE s_acctbal < 3000.000456 GROUP BY s_nationkey ORDER BY s_nationkey"},
	{"join-count", "SELECT COUNT(*) AS n FROM lineitem JOIN orders ON l_orderkey = o_orderkey"},
}

// BenchmarkPrepare prepares each case with no plan reused (Prepare:
// lowering, compilation and batch specialization) and lowers it alone
// (Lower).
func BenchmarkPrepare(b *testing.B) {
	cat := tpchCatalog()
	for _, c := range prepareCases {
		stmt, err := sql.Parse(c.text)
		if err != nil {
			b.Fatal(err)
		}
		q, err := sql.Plan(stmt, cat)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/Prepare", func(b *testing.B) {
			e := &rel.Engine{Cat: cat, Backend: rel.Compiled}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := e.Prepare(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/Lower", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := rel.Lower(q, cat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
