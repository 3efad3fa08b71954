package tpch

import (
	"fmt"
	"slices"
	"strings"

	"voodoo/internal/exec"
	"voodoo/internal/rel"
	"voodoo/internal/storage"
)

// QueryFunc executes one TPC-H query through a query runner (the Voodoo
// engine or a baseline).
type QueryFunc func(e rel.Runner) (*rel.Result, *exec.Stats, error)

// QueryNumbers lists the evaluated queries in paper order (Figure 13).
var QueryNumbers = []int{1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 19, 20}

// GPUQueryNumbers lists the queries Figure 12 runs (Ocelot does not support
// the rest).
var GPUQueryNumbers = []int{1, 4, 5, 6, 8, 12, 19}

// planners build each query's plan from the catalog it runs on, whose
// dictionaries and table sizes its literals come from. Every output column
// is computed inside the plan.
var planners = map[int]func(cat *storage.Catalog) rel.Query{1: q1, 4: q4, 5: q5, 6: q6, 7: q7,
	8: q8, 9: q9, 10: q10, 11: q11, 12: q12, 14: q14, 15: q15, 19: q19, 20: q20}

// Plan returns TPC-H query num planned for cat, as sql.Plan plans a
// statement. A table whose size the plan reads must be in cat; lowering
// reports the tables it scans.
func Plan(num int, cat *storage.Catalog) (q rel.Query, err error) {
	p, ok := planners[num]
	if !ok {
		return q, fmt.Errorf("tpch: query %d is not part of the evaluation", num)
	}
	defer func() {
		if r := recover(); r != nil {
			mt, ok := r.(missingTable)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("tpch: %w", mt.err)
		}
	}()
	return p(cat), nil
}

// Query returns the QueryFunc for a TPC-H query number: its plan on the
// runner's catalog, run once.
func Query(num int) (QueryFunc, error) {
	if _, ok := planners[num]; !ok {
		return nil, fmt.Errorf("tpch: query %d is not part of the evaluation", num)
	}
	return func(e rel.Runner) (*rel.Result, *exec.Stats, error) {
		q, err := Plan(num, e.Catalog())
		if err != nil {
			return nil, nil, err
		}
		return e.Run(q)
	}, nil
}

// missingTable is the panic of a planner that reads the size of a table
// the catalog lacks; Plan returns its error.
type missingTable struct{ err error }

// dict returns the sorted dictionary of a column, nil when the catalog has
// no such table (lowering then reports why).
func dict(cat *storage.Catalog, table, col string) []string {
	if t := cat.Table(table); t != nil {
		d, _ := t.Def(col)
		return d.Dict
	}
	return nil
}

// rows returns a table's row count.
func rows(cat *storage.Catalog, table string) int {
	t, err := cat.Lookup(table)
	if err != nil {
		panic(missingTable{err})
	}
	return t.N
}

// code resolves a dictionary literal; a missing value yields -1, which
// matches nothing.
func code(cat *storage.Catalog, table, col, val string) int64 {
	if i, ok := slices.BinarySearch(dict(cat, table, col), val); ok {
		return int64(i)
	}
	return -1
}

// codesContaining collects the dictionary codes whose strings contain sub.
func codesContaining(cat *storage.Catalog, table, col, sub string) []int64 {
	var out []int64
	for i, s := range dict(cat, table, col) {
		if strings.Contains(s, sub) {
			out = append(out, int64(i))
		}
	}
	return out
}

// prefixRange returns the inclusive dictionary code range of strings with
// the given prefix (empty range when none).
func prefixRange(cat *storage.Catalog, table, col, prefix string) (int64, int64) {
	d := dict(cat, table, col)
	lo, _ := slices.BinarySearch(d, prefix)
	hi, _ := slices.BinarySearch(d, prefix+"\xff")
	return int64(lo), int64(hi) - 1
}

// nationKey returns the n_nationkey of a nation name.
func nationKey(name string) int64 {
	for i, n := range nations {
		if n.name == name {
			return int64(i)
		}
	}
	return -1
}

// regionKey returns the r_regionkey of a region name.
func regionKey(name string) int64 { return int64(slices.Index(regions, name)) }

// revenue is l_extendedprice * (1 - l_discount).
func revenue() rel.Expr {
	return rel.B(rel.Mul, rel.C("l_extendedprice"),
		rel.B(rel.Sub, rel.F(1), rel.C("l_discount")))
}

// q1: pricing summary report.
func q1(cat *storage.Catalog) rel.Query {
	cutoff := Date("1998-12-01") - 90
	return rel.Query{
		Root: rel.GroupAgg{
			In: rel.Filter{
				In: rel.Scan{Table: "lineitem", Cols: []string{
					"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
					"l_discount", "l_tax", "l_shipdate"}},
				Pred: rel.B(rel.Le, rel.C("l_shipdate"), rel.I(cutoff)),
			},
			Keys: []string{"l_returnflag", "l_linestatus"},
			Aggs: []rel.AggSpec{
				{Func: rel.Sum, E: rel.C("l_quantity"), As: "sum_qty"},
				{Func: rel.Sum, E: rel.C("l_extendedprice"), As: "sum_base_price"},
				{Func: rel.Sum, E: revenue(), As: "sum_disc_price"},
				{Func: rel.Sum, E: rel.B(rel.Mul, revenue(),
					rel.B(rel.Add, rel.F(1), rel.C("l_tax"))), As: "sum_charge"},
				{Func: rel.Avg, E: rel.C("l_quantity"), As: "avg_qty"},
				{Func: rel.Avg, E: rel.C("l_extendedprice"), As: "avg_price"},
				{Func: rel.Avg, E: rel.C("l_discount"), As: "avg_disc"},
				{Func: rel.Count, As: "count_order"},
			},
		},
		OrderBy: []rel.OrderKey{{Col: "l_returnflag"}, {Col: "l_linestatus"}},
	}
}

// q4: order priority checking (EXISTS semi join).
func q4(cat *storage.Catalog) rel.Query {
	lo := Date("1993-07-01")
	hi := DateAdd(lo, 0, 3, 0)
	return rel.Query{
		Root: rel.GroupAgg{
			In: rel.IndexJoin{
				Probe: rel.Filter{
					In: rel.Scan{Table: "orders", Cols: []string{
						"o_orderkey", "o_orderdate", "o_orderpriority"}},
					Pred: rel.B(rel.And,
						rel.B(rel.Ge, rel.C("o_orderdate"), rel.I(lo)),
						rel.B(rel.Lt, rel.C("o_orderdate"), rel.I(hi))),
				},
				ProbeKey: "o_orderkey",
				Build: rel.Filter{
					In: rel.Scan{Table: "lineitem", Cols: []string{
						"l_orderkey", "l_commitdate", "l_receiptdate"}},
					Pred: rel.B(rel.Lt, rel.C("l_commitdate"), rel.C("l_receiptdate")),
				},
				BuildKey: "l_orderkey",
				Semi:     true,
			},
			Keys: []string{"o_orderpriority"},
			Aggs: []rel.AggSpec{{Func: rel.Count, As: "order_count"}},
		},
		OrderBy: []rel.OrderKey{{Col: "o_orderpriority"}},
	}
}

// q5: local supplier volume (six-table join).
func q5(cat *storage.Catalog) rel.Query {
	lo := Date("1994-01-01")
	hi := DateAdd(lo, 1, 0, 0)
	asiaNations := rel.IndexJoin{
		Probe:    rel.Scan{Table: "nation", Cols: []string{"n_nationkey", "n_regionkey"}},
		ProbeKey: "n_regionkey",
		Build: rel.Filter{
			In:   rel.Scan{Table: "region", Cols: []string{"r_regionkey", "r_name"}},
			Pred: rel.B(rel.Eq, rel.C("r_name"), rel.I(code(cat, "region", "r_name", "ASIA"))),
		},
		BuildKey: "r_regionkey",
		Semi:     true,
	}
	asiaSuppliers := rel.IndexJoin{
		Probe:    rel.Scan{Table: "supplier", Cols: []string{"s_suppkey", "s_nationkey"}},
		ProbeKey: "s_nationkey",
		Build:    asiaNations,
		BuildKey: "n_nationkey",
		Semi:     true,
	}
	j1 := rel.IndexJoin{
		Probe: rel.Scan{Table: "lineitem", Cols: []string{
			"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"}},
		ProbeKey: "l_orderkey",
		Build: rel.Filter{
			In: rel.Scan{Table: "orders", Cols: []string{"o_orderkey", "o_custkey", "o_orderdate"}},
			Pred: rel.B(rel.And,
				rel.B(rel.Ge, rel.C("o_orderdate"), rel.I(lo)),
				rel.B(rel.Lt, rel.C("o_orderdate"), rel.I(hi))),
		},
		BuildKey: "o_orderkey",
		Cols:     []string{"o_custkey"},
	}
	j2 := rel.IndexJoin{
		Probe: j1, ProbeKey: "o_custkey",
		Build:    rel.Scan{Table: "customer", Cols: []string{"c_custkey", "c_nationkey"}},
		BuildKey: "c_custkey",
		Cols:     []string{"c_nationkey"},
	}
	j3 := rel.IndexJoin{
		Probe: j2, ProbeKey: "l_suppkey",
		Build:    asiaSuppliers,
		BuildKey: "s_suppkey",
		Cols:     []string{"s_nationkey"},
	}
	return rel.Query{
		Root: rel.GroupAgg{
			In: rel.Filter{
				In:   j3,
				Pred: rel.B(rel.Eq, rel.C("c_nationkey"), rel.C("s_nationkey")),
			},
			Keys: []string{"s_nationkey"},
			Aggs: []rel.AggSpec{{Func: rel.Sum, E: revenue(), As: "revenue"}},
		},
		OrderBy: []rel.OrderKey{{Col: "revenue", Desc: true}},
	}
}

// q6: forecasting revenue change.
func q6(cat *storage.Catalog) rel.Query {
	lo := Date("1994-01-01")
	hi := DateAdd(lo, 1, 0, 0)
	return rel.Query{Root: rel.GroupAgg{
		In: rel.Filter{
			In: rel.Scan{Table: "lineitem", Cols: []string{
				"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"}},
			Pred: rel.B(rel.And,
				rel.B(rel.And,
					rel.B(rel.Ge, rel.C("l_shipdate"), rel.I(lo)),
					rel.B(rel.Lt, rel.C("l_shipdate"), rel.I(hi))),
				rel.B(rel.And,
					rel.Between{E: rel.C("l_discount"), Lo: rel.F(0.0499), Hi: rel.F(0.0701)},
					rel.B(rel.Lt, rel.C("l_quantity"), rel.I(24)))),
		},
		Aggs: []rel.AggSpec{{Func: rel.Sum,
			E: rel.B(rel.Mul, rel.C("l_extendedprice"), rel.C("l_discount")), As: "revenue"}},
	}}
}

// q7: volume shipping between France and Germany.
func q7(cat *storage.Catalog) rel.Query {
	fr, de := nationKey("FRANCE"), nationKey("GERMANY")
	j := rel.IndexJoin{
		Probe: rel.IndexJoin{
			Probe: rel.IndexJoin{
				Probe: rel.Filter{
					In: rel.Scan{Table: "lineitem", Cols: []string{
						"l_orderkey", "l_suppkey", "l_shipdate", "l_shipyear",
						"l_extendedprice", "l_discount"}},
					Pred: rel.Between{E: rel.C("l_shipdate"),
						Lo: rel.I(Date("1995-01-01")), Hi: rel.I(Date("1996-12-31"))},
				},
				ProbeKey: "l_orderkey",
				Build:    rel.Scan{Table: "orders", Cols: []string{"o_orderkey", "o_custkey"}},
				BuildKey: "o_orderkey",
				Cols:     []string{"o_custkey"},
			},
			ProbeKey: "o_custkey",
			Build:    rel.Scan{Table: "customer", Cols: []string{"c_custkey", "c_nationkey"}},
			BuildKey: "c_custkey",
			Cols:     []string{"c_nationkey"},
		},
		ProbeKey: "l_suppkey",
		Build:    rel.Scan{Table: "supplier", Cols: []string{"s_suppkey", "s_nationkey"}},
		BuildKey: "s_suppkey",
		Cols:     []string{"s_nationkey"},
	}
	return rel.Query{
		Root: rel.GroupAgg{
			In: rel.Filter{
				In: j,
				Pred: rel.B(rel.Or,
					rel.B(rel.And,
						rel.B(rel.Eq, rel.C("s_nationkey"), rel.I(fr)),
						rel.B(rel.Eq, rel.C("c_nationkey"), rel.I(de))),
					rel.B(rel.And,
						rel.B(rel.Eq, rel.C("s_nationkey"), rel.I(de)),
						rel.B(rel.Eq, rel.C("c_nationkey"), rel.I(fr)))),
			},
			Keys: []string{"s_nationkey", "c_nationkey", "l_shipyear"},
			Aggs: []rel.AggSpec{{Func: rel.Sum, E: revenue(), As: "revenue"}},
		},
		OrderBy: []rel.OrderKey{{Col: "s_nationkey"}, {Col: "l_shipyear"}},
	}
}

// q8: national market share.
func q8(cat *storage.Catalog) rel.Query {
	brazil := nationKey("BRAZIL")
	america := regionKey("AMERICA")
	j := rel.IndexJoin{ // supplier nation for the case expression
		Probe: rel.IndexJoin{ // customer nation must be in AMERICA
			Probe: rel.IndexJoin{
				Probe: rel.IndexJoin{
					Probe: rel.IndexJoin{
						Probe: rel.Scan{Table: "lineitem", Cols: []string{
							"l_orderkey", "l_partkey", "l_suppkey",
							"l_extendedprice", "l_discount"}},
						ProbeKey: "l_partkey",
						Build: rel.Filter{
							In: rel.Scan{Table: "part", Cols: []string{"p_partkey", "p_type"}},
							Pred: rel.B(rel.Eq, rel.C("p_type"),
								rel.I(code(cat, "part", "p_type", "ECONOMY ANODIZED STEEL"))),
						},
						BuildKey: "p_partkey",
					},
					ProbeKey: "l_orderkey",
					Build: rel.Filter{
						In: rel.Scan{Table: "orders", Cols: []string{
							"o_orderkey", "o_custkey", "o_orderdate", "o_orderyear"}},
						Pred: rel.Between{E: rel.C("o_orderdate"),
							Lo: rel.I(Date("1995-01-01")), Hi: rel.I(Date("1996-12-31"))},
					},
					BuildKey: "o_orderkey",
					Cols:     []string{"o_custkey", "o_orderyear"},
				},
				ProbeKey: "o_custkey",
				Build:    rel.Scan{Table: "customer", Cols: []string{"c_custkey", "c_nationkey"}},
				BuildKey: "c_custkey",
				Cols:     []string{"c_nationkey"},
			},
			ProbeKey: "c_nationkey",
			Build:    rel.Scan{Table: "nation", Cols: []string{"n_nationkey", "n_regionkey"}},
			BuildKey: "n_nationkey",
			Cols:     []string{"n_regionkey"},
		},
		ProbeKey: "l_suppkey",
		Build:    rel.Scan{Table: "supplier", Cols: []string{"s_suppkey", "s_nationkey"}},
		BuildKey: "s_suppkey",
		Cols:     []string{"s_nationkey"},
	}
	return rel.Query{
		Root: rel.Map{In: rel.GroupAgg{
			In: rel.Map{
				In: rel.Filter{In: j,
					Pred: rel.B(rel.Eq, rel.C("n_regionkey"), rel.I(america))},
				Outs: []rel.NamedExpr{
					{Name: "volume", E: revenue()},
					{Name: "brazil_volume", E: rel.B(rel.Mul, revenue(),
						rel.B(rel.Eq, rel.C("s_nationkey"), rel.I(brazil)))},
				},
			},
			Keys: []string{"o_orderyear"},
			Aggs: []rel.AggSpec{
				{Func: rel.Sum, E: rel.C("brazil_volume"), As: "brazil"},
				{Func: rel.Sum, E: rel.C("volume"), As: "total"},
			},
		}, Outs: []rel.NamedExpr{{Name: "mkt_share", E: rel.B(rel.Div, rel.C("brazil"), rel.C("total"))}}},
		OrderBy: []rel.OrderKey{{Col: "o_orderyear"}},
	}
}

// q9: product type profit measure, joining partsupp through the dense
// composite id.
func q9(cat *storage.Catalog) rel.Query {
	nSupp := rows(cat, "supplier")
	greens := codesContaining(cat, "part", "p_name", "green")
	j := rel.IndexJoin{
		Probe: rel.Map{
			In: rel.IndexJoin{
				Probe: rel.IndexJoin{
					Probe: rel.IndexJoin{
						Probe: rel.Scan{Table: "lineitem", Cols: []string{
							"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
							"l_extendedprice", "l_discount"}},
						ProbeKey: "l_partkey",
						Build: rel.Filter{
							In:   rel.Scan{Table: "part", Cols: []string{"p_partkey", "p_name"}},
							Pred: rel.InList{E: rel.C("p_name"), Vs: greens},
						},
						BuildKey: "p_partkey",
					},
					ProbeKey: "l_suppkey",
					Build:    rel.Scan{Table: "supplier", Cols: []string{"s_suppkey", "s_nationkey"}},
					BuildKey: "s_suppkey",
					Cols:     []string{"s_nationkey"},
				},
				ProbeKey: "l_orderkey",
				Build:    rel.Scan{Table: "orders", Cols: []string{"o_orderkey", "o_orderyear"}},
				BuildKey: "o_orderkey",
				Cols:     []string{"o_orderyear"},
			},
			Outs: []rel.NamedExpr{{Name: "combo", E: comboExpr(nSupp)}},
		},
		ProbeKey: "combo",
		Build:    rel.Scan{Table: "partsupp", Cols: []string{"ps_comboid", "ps_supplycost"}},
		BuildKey: "ps_comboid",
		Cols:     []string{"ps_supplycost"},
	}
	return rel.Query{
		Root: rel.GroupAgg{
			In: rel.Map{In: j, Outs: []rel.NamedExpr{{Name: "amount",
				E: rel.B(rel.Sub, revenue(),
					rel.B(rel.Mul, rel.C("ps_supplycost"), rel.C("l_quantity")))}}},
			Keys: []string{"s_nationkey", "o_orderyear"},
			Aggs: []rel.AggSpec{{Func: rel.Sum, E: rel.C("amount"), As: "sum_profit"}},
		},
		OrderBy: []rel.OrderKey{{Col: "s_nationkey"}, {Col: "o_orderyear", Desc: true}},
	}
}

// comboExpr recovers the dense partsupp id from (l_partkey, l_suppkey):
// j = ((l_suppkey-1-l_partkey) mod S) / (S/4); combo = (l_partkey-1)*4 + j.
func comboExpr(nSupp int) rel.Expr {
	s := int64(nSupp)
	// Modulo in the algebra is mathematical (non-negative), matching the
	// generator's recovery arithmetic.
	jpart := rel.B(rel.Sub, rel.B(rel.Sub, rel.C("l_suppkey"), rel.I(1)), rel.C("l_partkey"))
	// Voodoo Modulo yields non-negative results by definition.
	jmod := modExpr(jpart, s)
	j := rel.B(rel.Div, jmod, rel.I(s/SuppliersPerPart))
	return rel.B(rel.Add,
		rel.B(rel.Mul, rel.B(rel.Sub, rel.C("l_partkey"), rel.I(1)), rel.I(SuppliersPerPart)),
		j)
}

// modExpr is e mod m through the algebra's Modulo, which is non-negative by
// definition — matching the generator's recovery arithmetic.
func modExpr(e rel.Expr, m int64) rel.Expr {
	return rel.Bin{Op: rel.Mod, L: e, R: rel.IntLit{V: m}}
}

// q10: returned item reporting (top 20 customers by lost revenue).
func q10(cat *storage.Catalog) rel.Query {
	lo := Date("1993-10-01")
	hi := DateAdd(lo, 0, 3, 0)
	return rel.Query{
		Root: rel.GroupAgg{
			In: rel.IndexJoin{
				Probe: rel.Filter{
					In: rel.Scan{Table: "lineitem", Cols: []string{
						"l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"}},
					Pred: rel.B(rel.Eq, rel.C("l_returnflag"),
						rel.I(code(cat, "lineitem", "l_returnflag", "R"))),
				},
				ProbeKey: "l_orderkey",
				Build: rel.Filter{
					In: rel.Scan{Table: "orders", Cols: []string{
						"o_orderkey", "o_custkey", "o_orderdate"}},
					Pred: rel.B(rel.And,
						rel.B(rel.Ge, rel.C("o_orderdate"), rel.I(lo)),
						rel.B(rel.Lt, rel.C("o_orderdate"), rel.I(hi))),
				},
				BuildKey: "o_orderkey",
				Cols:     []string{"o_custkey"},
			},
			Keys: []string{"o_custkey"},
			Aggs: []rel.AggSpec{{Func: rel.Sum, E: revenue(), As: "revenue"}},
		},
		OrderBy: []rel.OrderKey{{Col: "revenue", Desc: true}},
		Limit:   20,
	}
}

// q11: important stock identification: the parts whose stock value is
// above a fraction of the total, a filter over a grouped aggregate that
// reads a global one of the same join.
func q11(cat *storage.Catalog) rel.Query {
	germany := nationKey("GERMANY")
	base := rel.IndexJoin{
		Probe: rel.Scan{Table: "partsupp", Cols: []string{
			"ps_partkey", "ps_suppkey", "ps_supplycost", "ps_availqty"}},
		ProbeKey: "ps_suppkey",
		Build: rel.Filter{
			In:   rel.Scan{Table: "supplier", Cols: []string{"s_suppkey", "s_nationkey"}},
			Pred: rel.B(rel.Eq, rel.C("s_nationkey"), rel.I(germany)),
		},
		BuildKey: "s_suppkey",
		Semi:     true,
	}
	value := rel.B(rel.Mul, rel.C("ps_supplycost"), rel.C("ps_availqty"))
	total := rel.Agg{G: &rel.GroupAgg{In: base, Aggs: []rel.AggSpec{{Func: rel.Sum, E: value, As: "total"}}}}
	return rel.Query{
		Root: rel.Filter{
			In: rel.GroupAgg{
				In:   base,
				Keys: []string{"ps_partkey"},
				Aggs: []rel.AggSpec{{Func: rel.Sum, E: value, As: "value"}},
			},
			Pred: rel.B(rel.Gt, rel.C("value"), rel.B(rel.Mul, total, rel.F(0.0001))),
		},
		OrderBy: []rel.OrderKey{{Col: "value", Desc: true}},
	}
}

// q12: shipping modes and order priority.
func q12(cat *storage.Catalog) rel.Query {
	lo := Date("1994-01-01")
	hi := DateAdd(lo, 1, 0, 0)
	urgent := code(cat, "orders", "o_orderpriority", "1-URGENT")
	high := code(cat, "orders", "o_orderpriority", "2-HIGH")
	modes := []int64{
		code(cat, "lineitem", "l_shipmode", "MAIL"),
		code(cat, "lineitem", "l_shipmode", "SHIP"),
	}
	highPred := rel.B(rel.Or,
		rel.B(rel.Eq, rel.C("o_orderpriority"), rel.I(urgent)),
		rel.B(rel.Eq, rel.C("o_orderpriority"), rel.I(high)))
	return rel.Query{
		Root: rel.GroupAgg{
			In: rel.Map{
				In: rel.IndexJoin{
					Probe: rel.Filter{
						In: rel.Scan{Table: "lineitem", Cols: []string{
							"l_orderkey", "l_shipmode", "l_shipdate",
							"l_commitdate", "l_receiptdate"}},
						Pred: rel.B(rel.And,
							rel.B(rel.And,
								rel.InList{E: rel.C("l_shipmode"), Vs: modes},
								rel.B(rel.Lt, rel.C("l_commitdate"), rel.C("l_receiptdate"))),
							rel.B(rel.And,
								rel.B(rel.Lt, rel.C("l_shipdate"), rel.C("l_commitdate")),
								rel.B(rel.And,
									rel.B(rel.Ge, rel.C("l_receiptdate"), rel.I(lo)),
									rel.B(rel.Lt, rel.C("l_receiptdate"), rel.I(hi))))),
					},
					ProbeKey: "l_orderkey",
					Build:    rel.Scan{Table: "orders", Cols: []string{"o_orderkey", "o_orderpriority"}},
					BuildKey: "o_orderkey",
					Cols:     []string{"o_orderpriority"},
				},
				Outs: []rel.NamedExpr{
					{Name: "high", E: highPred},
					{Name: "low", E: rel.Not{E: highPred}},
				},
			},
			Keys: []string{"l_shipmode"},
			Aggs: []rel.AggSpec{
				{Func: rel.Sum, E: rel.C("high"), As: "high_line_count"},
				{Func: rel.Sum, E: rel.C("low"), As: "low_line_count"},
			},
		},
		OrderBy: []rel.OrderKey{{Col: "l_shipmode"}},
	}
}

// q14: promotion effect.
func q14(cat *storage.Catalog) rel.Query {
	lo := Date("1995-09-01")
	hi := DateAdd(lo, 0, 1, 0)
	promoLo, promoHi := prefixRange(cat, "part", "p_type", "PROMO")
	return rel.Query{Root: rel.Map{In: rel.GroupAgg{
		In: rel.Map{
			In: rel.IndexJoin{
				Probe: rel.Filter{
					In: rel.Scan{Table: "lineitem", Cols: []string{
						"l_partkey", "l_shipdate", "l_extendedprice", "l_discount"}},
					Pred: rel.B(rel.And,
						rel.B(rel.Ge, rel.C("l_shipdate"), rel.I(lo)),
						rel.B(rel.Lt, rel.C("l_shipdate"), rel.I(hi))),
				},
				ProbeKey: "l_partkey",
				Build:    rel.Scan{Table: "part", Cols: []string{"p_partkey", "p_type"}},
				BuildKey: "p_partkey",
				Cols:     []string{"p_type"},
			},
			Outs: []rel.NamedExpr{{Name: "promo_rev", E: rel.B(rel.Mul, revenue(),
				rel.Between{E: rel.C("p_type"), Lo: rel.I(promoLo), Hi: rel.I(promoHi)})}},
		},
		Aggs: []rel.AggSpec{
			{Func: rel.Sum, E: rel.C("promo_rev"), As: "promo"},
			{Func: rel.Sum, E: revenue(), As: "total"},
		},
	}, Outs: []rel.NamedExpr{{Name: "promo_revenue",
		E: rel.B(rel.Div, rel.B(rel.Mul, rel.F(100), rel.C("promo")), rel.C("total"))}}}}
}

// q15: top supplier: the revenue view, filtered to the suppliers whose
// revenue equals its maximum.
func q15(cat *storage.Catalog) rel.Query {
	lo := Date("1996-01-01")
	hi := DateAdd(lo, 0, 3, 0)
	view := rel.GroupAgg{
		In: rel.Filter{
			In: rel.Scan{Table: "lineitem", Cols: []string{
				"l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"}},
			Pred: rel.B(rel.And,
				rel.B(rel.Ge, rel.C("l_shipdate"), rel.I(lo)),
				rel.B(rel.Lt, rel.C("l_shipdate"), rel.I(hi))),
		},
		Keys: []string{"l_suppkey"},
		Aggs: []rel.AggSpec{{Func: rel.Sum, E: revenue(), As: "total_revenue"}},
	}
	top := rel.Agg{G: &rel.GroupAgg{In: view,
		Aggs: []rel.AggSpec{{Func: rel.Max, E: rel.C("total_revenue"), As: "max_revenue"}}}}
	return rel.Query{Root: rel.Filter{In: view,
		Pred: rel.B(rel.Eq, rel.C("total_revenue"), top)}}
}

// q19: discounted revenue (disjunction of brand/container/quantity terms).
func q19(cat *storage.Catalog) rel.Query {
	contCodes := func(names ...string) []int64 {
		var out []int64
		for _, n := range names {
			out = append(out, code(cat, "part", "p_container", n))
		}
		return out
	}
	air := []int64{
		code(cat, "lineitem", "l_shipmode", "AIR"),
		code(cat, "lineitem", "l_shipmode", "REG AIR"),
	}
	deliver := code(cat, "lineitem", "l_shipinstruct", "DELIVER IN PERSON")
	term := func(brand string, conts []int64, qlo, qhi, slo, shi int64) rel.Expr {
		return rel.B(rel.And,
			rel.B(rel.And,
				rel.B(rel.Eq, rel.C("p_brand"), rel.I(code(cat, "part", "p_brand", brand))),
				rel.InList{E: rel.C("p_container"), Vs: conts}),
			rel.B(rel.And,
				rel.Between{E: rel.C("l_quantity"), Lo: rel.I(qlo), Hi: rel.I(qhi)},
				rel.Between{E: rel.C("p_size"), Lo: rel.I(slo), Hi: rel.I(shi)}))
	}
	pred := rel.B(rel.And,
		rel.B(rel.And,
			rel.InList{E: rel.C("l_shipmode"), Vs: air},
			rel.B(rel.Eq, rel.C("l_shipinstruct"), rel.I(deliver))),
		rel.B(rel.Or,
			term("Brand#12", contCodes("SM CASE", "SM BOX", "SM PACK", "SM PKG"), 1, 11, 1, 5),
			rel.B(rel.Or,
				term("Brand#23", contCodes("MED BAG", "MED BOX", "MED PKG", "MED PACK"), 10, 20, 1, 10),
				term("Brand#34", contCodes("LG CASE", "LG BOX", "LG PACK", "LG PKG"), 20, 30, 1, 15))))
	return rel.Query{Root: rel.GroupAgg{
		In: rel.Filter{
			In: rel.IndexJoin{
				Probe: rel.Scan{Table: "lineitem", Cols: []string{
					"l_partkey", "l_quantity", "l_extendedprice", "l_discount",
					"l_shipmode", "l_shipinstruct"}},
				ProbeKey: "l_partkey",
				Build: rel.Scan{Table: "part", Cols: []string{
					"p_partkey", "p_brand", "p_container", "p_size"}},
				BuildKey: "p_partkey",
				Cols:     []string{"p_brand", "p_container", "p_size"},
			},
			Pred: pred,
		},
		Aggs: []rel.AggSpec{{Func: rel.Sum, E: revenue(), As: "revenue"}},
	}}
}

// q20: potential part promotion: forest parts' suppliers whose stock
// exceeds half the quantity shipped, joined against the shipped quantity
// per (part, supplier) combo as an aggregate.
func q20(cat *storage.Catalog) rel.Query {
	lo := Date("1994-01-01")
	hi := DateAdd(lo, 1, 0, 0)
	nSupp := rows(cat, "supplier")
	nPart := rows(cat, "part")
	shipped := rel.GroupAgg{
		In: rel.Map{
			In: rel.Filter{
				In: rel.Scan{Table: "lineitem", Cols: []string{
					"l_partkey", "l_suppkey", "l_quantity", "l_shipdate"}},
				Pred: rel.B(rel.And,
					rel.B(rel.Ge, rel.C("l_shipdate"), rel.I(lo)),
					rel.B(rel.Lt, rel.C("l_shipdate"), rel.I(hi))),
			},
			Outs: []rel.NamedExpr{{Name: "combo", E: comboExpr(nSupp)}},
		},
		Keys:    []string{"combo"},
		Domains: []rel.Domain{{Min: 0, Max: int64(nPart*SuppliersPerPart) - 1}},
		Aggs:    []rel.AggSpec{{Func: rel.Sum, E: rel.C("l_quantity"), As: "qty"}},
	}
	fLo, fHi := prefixRange(cat, "part", "p_name", "forest")
	return rel.Query{
		Root: rel.GroupAgg{
			In: rel.Filter{
				In: rel.IndexJoin{
					Probe: rel.IndexJoin{
						Probe: rel.Scan{Table: "partsupp", Cols: []string{
							"ps_partkey", "ps_suppkey", "ps_comboid", "ps_availqty"}},
						ProbeKey: "ps_partkey",
						Build: rel.Filter{
							In: rel.Scan{Table: "part", Cols: []string{"p_partkey", "p_name"}},
							Pred: rel.Between{E: rel.C("p_name"),
								Lo: rel.I(fLo), Hi: rel.I(fHi)},
						},
						BuildKey: "p_partkey",
						Semi:     true,
					},
					ProbeKey: "ps_comboid",
					Build:    shipped,
					BuildKey: "combo",
					Cols:     []string{"qty"},
				},
				Pred: rel.B(rel.Gt, rel.C("ps_availqty"),
					rel.B(rel.Mul, rel.F(0.5), rel.C("qty"))),
			},
			Keys: []string{"ps_suppkey"},
			Aggs: []rel.AggSpec{{Func: rel.Count, As: "n"}},
		},
		OrderBy: []rel.OrderKey{{Col: "ps_suppkey"}},
	}
}
