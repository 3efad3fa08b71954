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

// BenchmarkPrepareSupplierGroup prepares the sql-short shape
// supplier-group, a grouped AVG of a float column over a filter: lowering,
// compilation and batch specialization, with no plan reused.
func BenchmarkPrepareSupplierGroup(b *testing.B) {
	cat := tpchCatalog()
	stmt, err := sql.Parse("SELECT s_nationkey, COUNT(*) AS n, AVG(s_acctbal) AS bal FROM supplier WHERE s_acctbal < 3000.000456 GROUP BY s_nationkey ORDER BY s_nationkey")
	if err != nil {
		b.Fatal(err)
	}
	q, err := sql.Plan(stmt, cat)
	if err != nil {
		b.Fatal(err)
	}
	e := &rel.Engine{Cat: cat, Backend: rel.Compiled}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := e.Prepare(q); err != nil {
			b.Fatal(err)
		}
	}
}
