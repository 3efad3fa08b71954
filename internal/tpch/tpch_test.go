package tpch

import (
	"math"
	"testing"

	"voodoo/internal/rel"
	"voodoo/internal/storage"
)

var testCat = Generate(Config{SF: 0.002, Seed: 42})

func freshEngines() map[string]*rel.Engine {
	return map[string]*rel.Engine{
		"compiled": {Cat: testCat, Backend: rel.Compiled},
		"interp":   {Cat: testCat, Backend: rel.Interpreted},
		"bulk":     {Cat: testCat, Backend: rel.BulkCompiled},
	}
}

func TestDateHelpers(t *testing.T) {
	if Date("1992-01-01") != 0 {
		t.Fatal("epoch should be day 0")
	}
	if Date("1992-01-31") != 30 {
		t.Fatalf("Jan 31 = %d", Date("1992-01-31"))
	}
	if DateAdd(Date("1994-01-01"), 1, 0, 0) != Date("1995-01-01") {
		t.Fatal("DateAdd year")
	}
	if DateAdd(Date("1993-07-01"), 0, 3, 0) != Date("1993-10-01") {
		t.Fatal("DateAdd months")
	}
	if YearOf(Date("1995-06-17")) != 1995 {
		t.Fatal("YearOf")
	}
}

func TestGeneratorShape(t *testing.T) {
	li := testCat.Table("lineitem")
	ord := testCat.Table("orders")
	if li == nil || ord == nil {
		t.Fatal("missing tables")
	}
	if li.N < ord.N {
		t.Fatalf("lineitem (%d) should outnumber orders (%d)", li.N, ord.N)
	}
	// Every lineitem (partkey, suppkey) pair must exist in partsupp via
	// the combo id.
	ps := testCat.Table("partsupp")
	nSupp := testCat.Table("supplier").N
	comboOK := map[int64]bool{}
	for i := 0; i < ps.N; i++ {
		comboOK[ps.Col("ps_comboid").Int(i)] = true
	}
	for i := 0; i < li.N; i += 17 {
		p := li.Col("l_partkey").Int(i)
		s := li.Col("l_suppkey").Int(i)
		combo := ComboOf(p, s, nSupp)
		if !comboOK[combo] {
			t.Fatalf("row %d: combo %d for (part %d, supp %d) not in partsupp", i, combo, p, s)
		}
		// And the combo row must actually name this part and supplier.
		if ps.Col("ps_partkey").Int(int(combo)) != p || ps.Col("ps_suppkey").Int(int(combo)) != s {
			t.Fatalf("combo %d resolves to (%d,%d), want (%d,%d)", combo,
				ps.Col("ps_partkey").Int(int(combo)), ps.Col("ps_suppkey").Int(int(combo)), p, s)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := Generate(Config{SF: 0.002, Seed: 42})
	b := Generate(Config{SF: 0.002, Seed: 42})
	if !a.Table("lineitem").Vector().Equal(b.Table("lineitem").Vector()) {
		t.Fatal("generator is not deterministic")
	}
	c := Generate(Config{SF: 0.002, Seed: 43})
	if a.Table("lineitem").Vector().Equal(c.Table("lineitem").Vector()) {
		t.Fatal("different seeds should give different data")
	}
}

func sameRows(t *testing.T, name string, a, b *rel.Result) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: %d rows vs %d rows", name, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for _, c := range a.Cols {
			av, bv := a.Rows[i][c], b.Rows[i][c]
			tol := 1e-6 * math.Max(1, math.Abs(av))
			if math.Abs(av-bv) > tol {
				t.Fatalf("%s row %d col %s: %g vs %g", name, i, c, av, bv)
			}
		}
	}
}

// TestQueriesAgreeAcrossBackends is the macro differential test: every
// evaluated query must produce identical results on the compiling backend,
// the interpreter, and the bulk (Ocelot-style) backend.
func TestQueriesAgreeAcrossBackends(t *testing.T) {
	for _, num := range QueryNumbers {
		num := num
		t.Run(queryName(num), func(t *testing.T) {
			qf, err := Query(num)
			if err != nil {
				t.Fatal(err)
			}
			var ref *rel.Result
			for name, e := range freshEngines() {
				res, _, err := qf(e)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				sameRows(t, name, ref, res)
			}
			if len(ref.Rows) == 0 {
				t.Fatalf("query %d returned no rows — parameters likely select nothing at this SF", num)
			}
		})
	}
}

func queryName(n int) string { return map[bool]string{true: "q"}[true] + itoa(n) }

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// TestQ1MatchesDirectComputation checks the headline query against a
// straight Go loop over the base data.
func TestQ1MatchesDirectComputation(t *testing.T) {
	li := testCat.Table("lineitem")
	cutoff := Date("1998-12-01") - 90
	type acc struct {
		qty, price, disc, charge, dsum float64
		n                              float64
	}
	want := map[[2]int64]*acc{}
	for i := 0; i < li.N; i++ {
		if li.Col("l_shipdate").Int(i) > cutoff {
			continue
		}
		k := [2]int64{li.Col("l_returnflag").Int(i), li.Col("l_linestatus").Int(i)}
		a := want[k]
		if a == nil {
			a = &acc{}
			want[k] = a
		}
		q := float64(li.Col("l_quantity").Int(i))
		p := li.Col("l_extendedprice").Float(i)
		d := li.Col("l_discount").Float(i)
		tax := li.Col("l_tax").Float(i)
		a.qty += q
		a.price += p
		a.disc += p * (1 - d)
		a.charge += p * (1 - d) * (1 + tax)
		a.dsum += d
		a.n++
	}
	e := &rel.Engine{Cat: testCat, Backend: rel.Compiled}
	res, _, err := Q1(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		k := [2]int64{int64(r["l_returnflag"]), int64(r["l_linestatus"])}
		a := want[k]
		if a == nil {
			t.Fatalf("unexpected group %v", k)
		}
		checks := map[string]float64{
			"sum_qty": a.qty, "sum_base_price": a.price,
			"sum_disc_price": a.disc, "sum_charge": a.charge,
			"count_order": a.n, "avg_qty": a.qty / a.n,
			"avg_price": a.price / a.n, "avg_disc": a.dsum / a.n,
		}
		for col, w := range checks {
			if math.Abs(r[col]-w) > 1e-6*math.Max(1, math.Abs(w)) {
				t.Errorf("group %v %s = %g, want %g", k, col, r[col], w)
			}
		}
	}
}

// TestQ6MatchesDirectComputation checks the selection query directly.
func TestQ6MatchesDirectComputation(t *testing.T) {
	li := testCat.Table("lineitem")
	lo, hi := Date("1994-01-01"), Date("1995-01-01")
	var want float64
	for i := 0; i < li.N; i++ {
		sd := li.Col("l_shipdate").Int(i)
		d := li.Col("l_discount").Float(i)
		q := li.Col("l_quantity").Int(i)
		if sd >= lo && sd < hi && d >= 0.0499 && d <= 0.0701 && q < 24 {
			want += li.Col("l_extendedprice").Float(i) * d
		}
	}
	e := &rel.Engine{Cat: testCat, Backend: rel.Compiled}
	res, _, err := Q6(e)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rows[0]["revenue"]
	if math.Abs(got-want) > 1e-6*math.Max(1, want) {
		t.Fatalf("revenue = %g, want %g", got, want)
	}
}

// TestQ4MatchesDirectComputation validates the semi-join query.
func TestQ4MatchesDirectComputation(t *testing.T) {
	li := testCat.Table("lineitem")
	ord := testCat.Table("orders")
	lo := Date("1993-07-01")
	hi := DateAdd(lo, 0, 3, 0)
	hasLate := map[int64]bool{}
	for i := 0; i < li.N; i++ {
		if li.Col("l_commitdate").Int(i) < li.Col("l_receiptdate").Int(i) {
			hasLate[li.Col("l_orderkey").Int(i)] = true
		}
	}
	want := map[int64]float64{}
	for i := 0; i < ord.N; i++ {
		od := ord.Col("o_orderdate").Int(i)
		if od >= lo && od < hi && hasLate[ord.Col("o_orderkey").Int(i)] {
			want[ord.Col("o_orderpriority").Int(i)]++
		}
	}
	e := &rel.Engine{Cat: testCat, Backend: rel.Compiled}
	res, _, err := Q4(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("groups = %d want %d", len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		if got, w := r["order_count"], want[int64(r["o_orderpriority"])]; got != w {
			t.Errorf("priority %g count = %g, want %g", r["o_orderpriority"], got, w)
		}
	}
}

func TestSaveLoadCatalog(t *testing.T) {
	dir := t.TempDir()
	if err := testCat.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := storage.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := &rel.Engine{Cat: back, Backend: rel.Compiled}
	res, _, err := Q6(e)
	if err != nil {
		t.Fatal(err)
	}
	orig, _, _ := Q6(&rel.Engine{Cat: testCat, Backend: rel.Compiled})
	if math.Abs(res.Rows[0]["revenue"]-orig.Rows[0]["revenue"]) > 1e-9 {
		t.Fatal("reloaded catalog gives different answer")
	}
}

// TestQ12MatchesDirectComputation validates the two-branch case sums.
func TestQ12MatchesDirectComputation(t *testing.T) {
	li := testCat.Table("lineitem")
	ord := testCat.Table("orders")
	lo := Date("1994-01-01")
	hi := DateAdd(lo, 1, 0, 0)
	mail, _ := li.Code("l_shipmode", "MAIL")
	ship, _ := li.Code("l_shipmode", "SHIP")
	urgent, _ := ord.Code("o_orderpriority", "1-URGENT")
	high, _ := ord.Code("o_orderpriority", "2-HIGH")
	prio := map[int64]int64{}
	for i := 0; i < ord.N; i++ {
		prio[ord.Col("o_orderkey").Int(i)] = ord.Col("o_orderpriority").Int(i)
	}
	type pair struct{ hi, lo float64 }
	want := map[int64]*pair{}
	for i := 0; i < li.N; i++ {
		m := li.Col("l_shipmode").Int(i)
		if m != mail && m != ship {
			continue
		}
		if !(li.Col("l_commitdate").Int(i) < li.Col("l_receiptdate").Int(i) &&
			li.Col("l_shipdate").Int(i) < li.Col("l_commitdate").Int(i) &&
			li.Col("l_receiptdate").Int(i) >= lo && li.Col("l_receiptdate").Int(i) < hi) {
			continue
		}
		p := want[m]
		if p == nil {
			p = &pair{}
			want[m] = p
		}
		op := prio[li.Col("l_orderkey").Int(i)]
		if op == urgent || op == high {
			p.hi++
		} else {
			p.lo++
		}
	}
	res, _, err := Q12(&rel.Engine{Cat: testCat, Backend: rel.Compiled})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		w := want[int64(r["l_shipmode"])]
		if w == nil || r["high_line_count"] != w.hi || r["low_line_count"] != w.lo {
			t.Errorf("mode %g: got (%g, %g), want %+v",
				r["l_shipmode"], r["high_line_count"], r["low_line_count"], w)
		}
	}
}

// TestQ15MatchesDirectComputation validates the top-supplier view.
func TestQ15MatchesDirectComputation(t *testing.T) {
	li := testCat.Table("lineitem")
	lo := Date("1996-01-01")
	hi := DateAdd(lo, 0, 3, 0)
	rev := map[int64]float64{}
	for i := 0; i < li.N; i++ {
		sd := li.Col("l_shipdate").Int(i)
		if sd < lo || sd >= hi {
			continue
		}
		rev[li.Col("l_suppkey").Int(i)] +=
			li.Col("l_extendedprice").Float(i) * (1 - li.Col("l_discount").Float(i))
	}
	var best float64
	for _, v := range rev {
		if v > best {
			best = v
		}
	}
	res, _, err := Q15(&rel.Engine{Cat: testCat, Backend: rel.Compiled})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 1 {
		t.Fatal("no top supplier")
	}
	for _, r := range res.Rows {
		if math.Abs(r["total_revenue"]-best) > 1e-6 {
			t.Errorf("top revenue %g, want %g", r["total_revenue"], best)
		}
		if math.Abs(rev[int64(r["l_suppkey"])]-best) > 1e-6 {
			t.Errorf("supplier %g is not a top supplier", r["l_suppkey"])
		}
	}
}

// TestQ11ThresholdSemantics validates Q11's one plan, a filter over the
// grouped aggregate against a fraction of a global aggregate of the same
// join, against the answer computed by hand, on every backend.
func TestQ11ThresholdSemantics(t *testing.T) {
	ps := testCat.Table("partsupp")
	sup := testCat.Table("supplier")
	germany := nationKey("GERMANY")
	german := map[int64]bool{}
	for i := 0; i < sup.N; i++ {
		if sup.Col("s_nationkey").Int(i) == germany {
			german[sup.Col("s_suppkey").Int(i)] = true
		}
	}
	perPart := map[int64]float64{}
	var total float64
	for i := 0; i < ps.N; i++ {
		if !german[ps.Col("ps_suppkey").Int(i)] {
			continue
		}
		v := ps.Col("ps_supplycost").Float(i) * float64(ps.Col("ps_availqty").Int(i))
		perPart[ps.Col("ps_partkey").Int(i)] += v
		total += v
	}
	wantRows := 0
	for _, v := range perPart {
		if v > total*0.0001 {
			wantRows++
		}
	}
	for name, e := range freshEngines() {
		res, _, err := Q11(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != wantRows {
			t.Fatalf("%s: rows = %d, want %d", name, len(res.Rows), wantRows)
		}
		for _, r := range res.Rows {
			if want := perPart[int64(r["ps_partkey"])]; math.Abs(r["value"]-want) > 1e-6 || want <= total*0.0001 {
				t.Errorf("%s: part %g value %g, want %g above %g", name, r["ps_partkey"], r["value"], want, total*0.0001)
			}
		}
	}
}

// TestComboExprMatchesGo cross-checks the algebraic combo-id recovery
// against the Go helper on every lineitem row.
func TestComboExprMatchesGo(t *testing.T) {
	li := testCat.Table("lineitem")
	nSupp := testCat.Table("supplier").N
	e := &rel.Engine{Cat: testCat, Backend: rel.Compiled}
	res, _, err := e.Run(rel.Query{Root: rel.GroupAgg{
		In: rel.Map{
			In:   rel.Scan{Table: "lineitem", Cols: []string{"l_partkey", "l_suppkey"}},
			Outs: []rel.NamedExpr{{Name: "combo", E: comboExpr(nSupp)}},
		},
		Aggs: []rel.AggSpec{{Func: rel.Sum, E: rel.C("combo"), As: "s"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := 0; i < li.N; i++ {
		want += float64(ComboOf(li.Col("l_partkey").Int(i), li.Col("l_suppkey").Int(i), nSupp))
	}
	if math.Abs(res.Rows[0]["s"]-want) > 1e-3 {
		t.Fatalf("combo sum %g, want %g", res.Rows[0]["s"], want)
	}
}
