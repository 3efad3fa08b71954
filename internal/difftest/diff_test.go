package difftest

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/interp"
	"voodoo/internal/metrics"
	"voodoo/internal/rel"
	"voodoo/internal/sql"
	"voodoo/internal/tpch"
	"voodoo/internal/trace"
	"voodoo/internal/vector"
)

// diffPool backs the pooled combo: one pool shared by every pooled run
// (and, in the concurrency test, by every goroutine), exactly as a server
// process shares one pool across requests.
var diffPool = vector.NewPool(0)

// configs is every option combination of the compiling backend the
// differential test checks against the interpreter. ScatterParallel
// stays off: parallel scatter resolves write conflicts in a
// backend-specific order, so it is only enabled by the relational frontend,
// whose join builds have unique keys. The pooled combo runs the default options with
// recycled kernel buffers — results must stay bit-identical to the heap
// combos, or buffer reuse is leaking state between queries. The
// morsel-sweep combo runs with 4 workers across pathological morsel
// sizes — results must stay bit-identical at every scheduling
// granularity, or morsel claim order is leaking into results. The
// specialize-sweep combo crosses specialization {off, on} with
// pathological morsel sizes — specialization off runs the batch program
// in element order, one element at a time, so results must stay
// bit-identical on every (path, granularity) pair, or a tile diverged from
// per-element semantics. It also runs every pair a second time traced: a trace must
// not change which path a fragment takes, so the traced run's values stay
// bit-identical and its fragment steps report exactly the path mix the
// untraced run's counters saw. The sweep runs under default options and
// again under predication, the only way the compiler emits the two-loop
// filter-fold (scratch positions, dynamic second bound) the batch tier runs.
var configs = []struct {
	name    string
	opt     compile.Options
	pooled  bool
	morsels []int // when set, the plan runs once per morsel size
	// noSpecialize, when set, is crossed with morsels (default:
	// specialization on).
	noSpecialize []bool
	// traced repeats each run with RunOpts.Trace and checks path parity.
	traced bool
}{
	{name: "compiled", opt: compile.Options{}},
	{name: "predicated", opt: compile.Options{Predication: true}},
	{name: "bulk", opt: compile.Options{ForceBulk: true}},
	{name: "bulk-predicated", opt: compile.Options{ForceBulk: true, Predication: true}},
	{name: "pooled", opt: compile.Options{}, pooled: true},
	{name: "morsel-sweep", opt: compile.Options{Workers: 4}, morsels: []int{1, 7, 1024, 0}},
	{name: "specialize-sweep", opt: compile.Options{Workers: 4}, morsels: []int{1, 7, 0},
		noSpecialize: []bool{true, false}, traced: true},
	{name: "specialize-sweep-predicated", opt: compile.Options{Workers: 4, Predication: true}, morsels: []int{1, 7, 0},
		noSpecialize: []bool{true, false}, traced: true},
}

// fragmentPaths reads the executor's process-wide per-path fragment
// counters (interp, batch); tests in this package run one at a time, so a
// delta around a run belongs to that run.
func fragmentPaths() [2]int64 {
	vec := metrics.Default.CounterVec("voodoo_fragments_specialized_total", "", "path")
	return [2]int64{vec.With("interp").Value(), vec.With("batch").Value()}
}

// runPlan executes a compiled plan under the config's memory regime,
// morsel size, specialization switch and tracing; the returned release func recycles pooled buffers and must
// be called after the result has been compared (never before).
func runPlan(ctx context.Context, plan *compile.Plan, pooled bool, morsel int, noSpecialize, traced bool) (*compile.Result, func(), error) {
	ro := compile.RunOpts{MorselSize: morsel, NoSpecialize: noSpecialize, Trace: traced}
	if pooled {
		ro.Pool = diffPool
	}
	res, err := plan.RunWith(ctx, ro)
	if err != nil {
		return nil, func() {}, err
	}
	if pooled {
		return res, res.Release, nil
	}
	return res, func() {}, nil
}

// pinnedProgram is a hand-built program the generator does not produce.
type pinnedProgram struct {
	name  string
	build func(t *testing.T) *Program
	// empty marks a program that selects nothing: every root must hold
	// only ε and zeros.
	empty bool
	// inPlace and spilled assert how a fused plan (not ForceBulk) lowers
	// the program's one filter: read in place, with no filt_* fragment, or
	// spilled by exactly one.
	inPlace, spilled bool
}

// pinned are run through every config after the generated corpus. The
// first three select nothing: no row passes the predicate. The next three
// reach the compiler's fold fallback (compileFoldOn): a fold over a pending
// filter, virtual scatter or group that the fused fold cannot take, which
// materializes the pending vector first. Then come filters a fold reads in
// place or that spill, each asserting which, and last grouped aggregates
// read as relations.
var pinned = []pinnedProgram{
	{name: "select-nothing-materialized", empty: true, build: func(*testing.T) *Program {
		b := core.NewBuilder()
		sel := b.FoldSelect(b.Greater(b.Load("t"), b.Constant(1000)), "", "")
		b.Materialize(sel, sel, "")
		return &Program{Prog: b.Program(), St: interp.MemStorage{"t": modVec("v", 100, 100)}}
	}},
	{name: "gather-through-select-nothing", empty: true, build: func(*testing.T) *Program {
		b := core.NewBuilder()
		in := b.Load("t")
		b.Gather(in, b.FoldSelect(b.Greater(in, b.Constant(500)), "", ""), "")
		return &Program{Prog: b.Program(), St: interp.MemStorage{"t": modVec("v", 64, 64)}}
	}},
	{name: "sql supplier-out-of-range", empty: true, build: func(t *testing.T) *Program {
		return sqlProgram(t, "SELECT COUNT(*) AS n FROM supplier WHERE s_suppkey > 100000000")
	}},
	{name: "foldselect-foldscan-over-filter", build: func(*testing.T) *Program {
		b := core.NewBuilder()
		in := b.Load("t")
		hit := b.Gather(in, b.FoldSelect(b.Greater(in, b.Constant(3)), "", ""), "")
		again := b.FoldSelect(b.Greater(hit, b.Constant(6)), "", "")
		b.Materialize(again, again, "")
		b.FoldScan(hit, "", "v")
		return &Program{Prog: b.Program(), St: interp.MemStorage{"t": modVec("v", 90, 10)}}
	}},
	{name: "folds-over-scatter", build: func(*testing.T) *Program {
		// Figure 4's SIMD scatter, folded globally and keyed off the
		// partition attribute instead of by it.
		b := core.NewBuilder()
		input := b.Load("input")
		lanes := b.Project("partition", b.Modulo(b.Range(input), b.Constant(4)), "")
		withLane := b.Zip("val", input, "val", "partition", lanes, "partition")
		pos := b.Partition("pos", lanes, "partition", b.RangeN(0, 4, 1), "")
		scattered := b.Scatter(withLane, input, "", b.Upsert(withLane, "pos", pos, "pos"), "pos")
		b.GlobalSum(scattered, "val")
		b.FoldSum(scattered, "val", "val")
		b.FoldScan(scattered, "partition", "val")
		sel := b.FoldSelect(b.Arith(core.OpGreater, "val", scattered, "val", b.Constant(7), ""), "", "val")
		b.Materialize(sel, sel, "")
		return &Program{Prog: b.Program(), St: interp.MemStorage{"input": modVec("val", 64, 16)}}
	}},
	{name: "folds-over-group", build: func(*testing.T) *Program {
		// Figure 11's grouped scatter, folded with an empty keypath and
		// by position.
		b := core.NewBuilder()
		in := b.Load("t")
		pos := b.Partition("pos", in, "g", b.RangeN(0, 5, 1), "")
		scattered := b.Scatter(in, in, "", b.Upsert(in, "pos", pos, "pos"), "pos")
		b.FoldSum(scattered, "", "v")
		b.FoldMax(scattered, "", "g")
		b.FoldScan(scattered, "g", "v")
		sel := b.FoldSelect(b.Greater(b.Project("v", scattered, "v"), b.Constant(50)), "", "")
		b.Materialize(sel, sel, "")
		g, v := make([]int64, 120), make([]int64, 120)
		for i := range g {
			g[i], v[i] = int64(i*7%5), int64(i*37%101)
		}
		return &Program{Prog: b.Program(), St: interp.MemStorage{"t": vector.New(120).
			Set("g", vector.NewInt(g)).Set("v", vector.NewInt(v))}}
	}},
	// A GROUP BY over a WHERE reads the filter in place: the WHERE passes
	// every row, none, or some; group zero holds rows or only the rejected
	// ones; the filtered columns carry ε of their own.
	{name: "where-all-grouped", inPlace: true, build: func(*testing.T) *Program {
		return groupedWhere(-1e9, whereTable(false, false), nil)
	}},
	{name: "where-none-grouped", inPlace: true, build: func(*testing.T) *Program {
		return groupedWhere(1e9, whereTable(false, false), nil)
	}},
	{name: "where-some-grouped", inPlace: true, build: func(*testing.T) *Program {
		return groupedWhere(40, whereTable(false, false), nil)
	}},
	{name: "where-some-grouped-zero-rejected", inPlace: true, build: func(*testing.T) *Program {
		return groupedWhere(40, whereTable(true, false), nil)
	}},
	{name: "where-some-grouped-epsilon", inPlace: true, build: func(*testing.T) *Program {
		return groupedWhere(40, whereTable(false, true), nil)
	}},
	// The same shape with one more consumer that sees where ε slots sit
	// spills the filter. A fold keyed on another attribute materializes the
	// grouped scatter, which must not divide on the filter's padding.
	{name: "where-grouped-root", spilled: true, build: func(*testing.T) *Program {
		return groupedWhere(40, whereTable(false, true), func(b *core.Builder, hit, row, scattered core.Ref) {
			b.Project("v", hit, "v")
		})
	}},
	{name: "where-grouped-range", spilled: true, build: func(*testing.T) *Program {
		return groupedWhere(40, whereTable(false, true), func(b *core.Builder, hit, row, scattered core.Ref) {
			z := b.Zip("a", row, "a", "i", b.Range(row), "")
			b.FoldSum(b.Arith(core.OpMultiply, "x", z, "a", z, "i"), "", "x")
		})
	}},
	{name: "where-grouped-foldselect", spilled: true, build: func(*testing.T) *Program {
		return groupedWhere(40, whereTable(false, true), func(b *core.Builder, hit, row, scattered core.Ref) {
			again := b.FoldSelect(b.Arith(core.OpGreater, "q", row, "a", b.Constant(60), ""), "", "q")
			b.Materialize(again, again, "")
		})
	}},
	{name: "where-grouped-other-key", spilled: true, build: func(*testing.T) *Program {
		return groupedWhere(40, whereTable(false, true), func(b *core.Builder, hit, row, scattered core.Ref) {
			b.FoldSum(scattered, "v", "a")
		})
	}},
	// A Gather through a selection of a source shorter than the selection
	// reads ε past the source's end, whether the filter is read in place
	// or spilled.
	{name: "gather-shorter-source", inPlace: true, build: func(*testing.T) *Program {
		b := core.NewBuilder()
		hit := b.Gather(b.Load("u"), b.FoldSelect(b.Greater(b.Load("t"), b.Constant(3)), "", ""), "")
		b.FoldSum(b.Add(hit, b.Constant(1)), "", "")
		return &Program{Prog: b.Program(), St: interp.MemStorage{"t": modVec("v", 40, 9), "u": modVec("x", 25, 7)}}
	}},
	{name: "gather-shorter-source-root", spilled: true, build: func(*testing.T) *Program {
		b := core.NewBuilder()
		b.Gather(b.Load("u"), b.FoldSelect(b.Greater(b.Load("t"), b.Constant(3)), "", ""), "")
		return &Program{Prog: b.Program(), St: interp.MemStorage{"t": modVec("v", 40, 9), "u": modVec("x", 25, 7)}}
	}},
	// Most parts have no lineitem of quantity 1 or 2: their groups are
	// empty, ε rows of the build that the join must not match.
	{name: "join-build-grouped-empty-groups", build: func(t *testing.T) *Program {
		return relProgram(t, rel.Query{Root: rel.GroupAgg{
			In: rel.IndexJoin{
				Probe:    rel.Scan{Table: "part", Cols: []string{"p_partkey", "p_brand"}},
				ProbeKey: "p_partkey",
				Build:    rareParts,
				BuildKey: "l_partkey",
				Cols:     []string{"qty", "n"},
			},
			Keys: []string{"p_brand"},
			Aggs: []rel.AggSpec{{Func: rel.Sum, E: rel.C("qty"), As: "qty"},
				{Func: rel.Count, As: "parts"}, {Func: rel.Max, E: rel.C("n"), As: "n"}},
		}})
	}},
	// A filter over a grouped aggregate against a global one of it, and an
	// aggregate of what passes.
	{name: "filter-over-grouped", build: func(t *testing.T) *Program {
		top := rel.Agg{G: &rel.GroupAgg{In: rareParts, Aggs: []rel.AggSpec{{Func: rel.Max, E: rel.C("qty"), As: "top"}}}}
		return relProgram(t, rel.Query{Root: rel.GroupAgg{
			In:   rel.Filter{In: rareParts, Pred: rel.B(rel.Gt, rel.B(rel.Mul, rel.C("qty"), rel.I(2)), top)},
			Aggs: []rel.AggSpec{{Func: rel.Count, As: "parts"}, {Func: rel.Sum, E: rel.C("qty"), As: "qty"}},
		}})
	}},
	// A grouped fold's values scattered by the fold's own group id, the
	// compiler's view of the compact slots: groups 2 and 5 are empty, and
	// the ids are ε on every ninth row.
	{name: "grouped-by-own-id", build: func(*testing.T) *Program { return groupedByOwnID() }},
	// A fold keyed on the partitioned attribute over its virtual scatter,
	// by pivots other than 0, 1, …: a partition is not the value itself,
	// so the fold's runs are not the grouped fold's tables.
	{name: "grouped-by-shifted-pivots", build: func(*testing.T) *Program {
		return foldByPivots([]int64{0, 1, 2, 3, 0, 1}, 2, 3, 1)
	}},
	{name: "grouped-by-sparse-pivots", build: func(*testing.T) *Program {
		return foldByPivots([]int64{0, 5, 15, 23, 31, 12}, 10, 3, 10)
	}},
}

// foldByPivots is t(g, v) with v = 1, 2, …, partitioned by g over the
// pivots RangeN(from, n, step), scattered, and summed keyed on g.
func foldByPivots(g []int64, from int64, n int, step int64) *Program {
	v := make([]int64, len(g))
	for i := range v {
		v[i] = int64(i + 1)
	}
	b := core.NewBuilder()
	in := b.Load("t")
	pos := b.Partition("pos", in, "g", b.RangeN(from, n, step), "")
	scattered := b.Scatter(in, in, "", b.Upsert(in, "pos", pos, "pos"), "pos")
	b.FoldSum(scattered, "g", "v")
	return &Program{Prog: b.Program(), St: interp.MemStorage{"t": vector.New(len(g)).
		Set("g", vector.NewInt(g)).Set("v", vector.NewInt(v))}}
}

// groupedByOwnID is t(g, v, m) over 200 rows, g cycling 0, 1, 3, 4, v ε every fifth
// row and m every ninth, grouped as rel lowers an aggregate over a filtered
// join: the group id g + m×0 and the input v + m×0, ε where m is,
// partitioned over the pivots 0..5, with a COUNT, a SUM of v, their
// quotient and a constant scattered by the group id (the max of the id per
// group) to the six slots 0..5.
func groupedByOwnID() *Program {
	const n, k = 200, 6
	g, v, m := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range n {
		g[i], v[i], m[i] = []int64{0, 1, 3, 4}[i%4], int64(i*37%101)-20, 1
	}
	vc, mc := vector.NewInt(v), vector.NewInt(m)
	for i := 0; i < n; i += 5 {
		vc.SetEmpty(i)
	}
	for i := 0; i < n; i += 9 {
		mc.SetEmpty(i)
	}
	b := core.NewBuilder()
	in := b.Load("t")
	dead := b.Arith(core.OpMultiply, "z", in, "m", b.Constant(0), "")
	row := b.Upsert(in, "gid", b.Add(b.Project("g", in, "g"), dead), "")
	row = b.Upsert(row, "v", b.Add(b.Project("v", in, "v"), dead), "")
	row = b.Upsert(row, "one", b.Equals(b.Arith(core.OpGreater, "x", row, "gid", row, "gid"), b.Constant(0)), "")
	pos := b.Partition("pos", row, "gid", b.RangeN(0, k, 1), "")
	scattered := b.Scatter(row, row, "", b.Upsert(row, "pos", pos, "pos"), "pos")
	cnt, sum := b.FoldSum(scattered, "gid", "one"), b.FoldSum(scattered, "gid", "v")
	groups := b.FoldMax(scattered, "gid", "gid")
	out := b.Upsert(b.Project("n", cnt, ""), "s", sum, "")
	out = b.Upsert(out, "avg", b.Divide(b.Multiply(sum, b.ConstantF(1)), cnt), "")
	out = b.Upsert(out, "c", b.Constant(7), "") // valid in every slot, also an empty group's
	b.Scatter(out, b.RangeN(0, k, 1), "", groups, "")
	return &Program{Prog: b.Program(), St: interp.MemStorage{"t": vector.New(n).
		Set("g", vector.NewInt(g)).Set("v", vc).Set("m", mc)}}
}

// rareParts is the quantity per part of the lineitems of quantity below 3.
var rareParts = rel.GroupAgg{
	In: rel.Filter{
		In:   rel.Scan{Table: "lineitem", Cols: []string{"l_partkey", "l_quantity"}},
		Pred: rel.B(rel.Lt, rel.C("l_quantity"), rel.I(3)),
	},
	Keys: []string{"l_partkey"},
	Aggs: []rel.AggSpec{{Func: rel.Sum, E: rel.C("l_quantity"), As: "qty"}, {Func: rel.Count, As: "n"}},
}

// whereTable is t(g, v, w, d) over 300 rows: group ids 0..4 (1..4 with
// noZero), integers v and d, floats w; with eps, ε in every seventh v and
// every eleventh w, and d is zero exactly where w is ε — on rows every WHERE
// over w rejects, so dividing by d faults only where a selection is not
// applied first.
func whereTable(noZero, eps bool) *vector.Vector {
	const n = 300
	g, v, w, d := make([]int64, n), make([]int64, n), make([]float64, n), make([]int64, n)
	for i := range n {
		g[i], v[i], w[i], d[i] = int64(i*7%5), int64(i*37%101)-20, float64(i*13%97)+0.5, int64(1+i%3)
		if noZero && g[i] == 0 {
			g[i] = 3
		}
	}
	vc, wc := vector.NewInt(v), vector.NewFloat(w)
	if eps {
		for i := 0; i < n; i += 7 {
			vc.SetEmpty(i)
		}
		for i := 3; i < n; i += 11 {
			wc.SetEmpty(i)
			d[i] = 0
		}
	}
	return vector.New(n).Set("g", vector.NewInt(g)).Set("v", vc).Set("w", wc).Set("d", vector.NewInt(d))
}

// groupedWhere is a GROUP BY over a WHERE as the relational frontend lowers
// it: FoldSelect of w > cut in blocked runs of 7, Gather, arithmetic,
// Partition by the group id, its virtual Scatter, and FoldSum, FoldMin and
// FoldMax keyed on the group id. The folds also sum v / d, which faults on
// rows the WHERE rejects (a spilled filter leaves d's padding zero, where
// the interpreter skips ε slots). tail, when set, adds a consumer.
func groupedWhere(cut float64, t *vector.Vector, tail func(b *core.Builder, hit, row, scattered core.Ref)) *Program {
	b := core.NewBuilder()
	in := b.Load("t")
	pred := b.Arith(core.OpGreater, "p", in, "w", b.ConstantF(cut), "")
	fold := b.Project("fold", b.Divide(b.Range(in), b.Constant(7)), "")
	sel := b.FoldSelect(b.Zip("p", pred, "p", "fold", fold, "fold"), "fold", "p")
	hit := b.Gather(in, sel, "")
	row := b.Upsert(hit, "a", b.Arith(core.OpMultiply, "a", hit, "v", b.Constant(3), ""), "a")
	row = b.Upsert(row, "q", b.Arith(core.OpDivide, "q", row, "v", row, "d"), "q")
	row = b.Upsert(row, "gid", b.Arith(core.OpSubtract, "gid", row, "g", b.Constant(0), ""), "gid")
	pos := b.Partition("pos", row, "gid", b.RangeN(0, 5, 1), "")
	scattered := b.Scatter(row, row, "", b.Upsert(row, "pos", pos, "pos"), "pos")
	b.FoldSum(scattered, "gid", "a")
	b.FoldMin(scattered, "gid", "v")
	b.FoldMax(scattered, "gid", "w")
	b.FoldMax(scattered, "gid", "gid")
	b.FoldSum(scattered, "gid", "q")
	if tail != nil {
		tail(b, hit, row, scattered)
	}
	return &Program{Prog: b.Program(), St: interp.MemStorage{"t": t}}
}

// modVec is the single-column vector i mod m for i in [0, n).
func modVec(name string, n, m int) *vector.Vector {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % m)
	}
	return vector.New(n).Set(name, vector.NewInt(vals))
}

// sqlProgram lowers one statement over a small TPC-H catalog and loads the
// vectors its program reads into memory storage.
func sqlProgram(t *testing.T, text string) *Program {
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Plan(stmt, pinnedCat)
	if err != nil {
		t.Fatal(err)
	}
	return relProgram(t, q)
}

// pinnedCat is the small TPC-H catalog pinned plans run over.
var pinnedCat = tpch.Generate(tpch.Config{SF: 0.001, Seed: 42})

// relProgram lowers a plan over pinnedCat and loads the vectors its
// program reads into memory storage.
func relProgram(t *testing.T, q rel.Query) *Program {
	cat := pinnedCat
	prog, err := rel.Lower(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	st := interp.MemStorage{}
	for _, s := range prog.Stmts {
		if s.Op == core.OpLoad {
			if st[s.Name], err = cat.LoadVector(s.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	return &Program{Prog: prog, St: st}
}

// allEmptyOrZero reports whether every slot of v is ε or zero.
func allEmptyOrZero(v *vector.Vector) bool {
	for _, name := range v.Names() {
		c := v.Col(name)
		for i := range c.Len() {
			if c.Valid(i) && c.Float(i) != 0 {
				return false
			}
		}
	}
	return true
}

const (
	fullPrograms  = 500
	shortPrograms = 100
	maxReported   = 5 // stop after this many divergences; the rest is noise
)

// TestInterpVsCompiled is the differential harness: every generated
// program, and every pinned one, must produce bit-identical root values on
// the interpreter and on the compiling backend under all option
// combinations. When the interpreter rejects a generated program, every
// compiled configuration must reject it too (at compile or run time), and
// such programs may not exceed 5% of the corpus. A pinned program must
// run, and one that selects nothing must leave every root all-ε or zero.
func TestInterpVsCompiled(t *testing.T) {
	n := fullPrograms
	if testing.Short() {
		n = shortPrograms
	}
	ctx := context.Background()
	reported, interpErrs := 0, 0
	// check runs one program through every config; pin is nil for a
	// generated one.
	check := func(label string, p *Program, pin *pinnedProgram) {
		ires, ierr := interp.Run(ctx, p.Prog, p.St, interp.Opts{})
		if ierr != nil {
			interpErrs++
		}
		roots := p.Prog.Roots()
		if len(roots) == 0 {
			t.Fatalf("%s: program has no roots:\n%s", label, p.Prog)
		}
		if pin != nil && ierr != nil {
			t.Fatalf("%s: interp: %v\n%s", label, ierr, p.Prog)
		}
		if pin != nil && pin.empty {
			for _, ref := range roots {
				if v := ires.Value(ref); !allEmptyOrZero(v) {
					t.Fatalf("%s: root v%d selects something:\n%s", label, ref, v)
				}
			}
		}
		for _, cfg := range configs {
			if reported >= maxReported {
				t.Fatalf("stopping after %d divergences", maxReported)
			}
			plan, cerr := compile.Compile(p.Prog, p.St, cfg.opt)
			morsels := cfg.morsels
			if len(morsels) == 0 {
				morsels = []int{0}
			}
			noSpecs := cfg.noSpecialize
			if len(noSpecs) == 0 {
				noSpecs = []bool{false}
			}
			if ierr != nil {
				if cerr != nil {
					continue
				}
				if _, release, rerr := runPlan(ctx, plan, cfg.pooled, morsels[0], noSpecs[0], false); rerr == nil {
					release()
					t.Errorf("%s %s: interpreter rejects the program (%v) but the compiled plan runs:\n%s",
						label, cfg.name, ierr, p.Prog)
					reported++
				}
				continue
			}
			if cerr != nil {
				t.Errorf("%s %s: compile failed: %v\nprogram:\n%s", label, cfg.name, cerr, p.Prog)
				reported++
				continue
			}
			if pin != nil && (pin.inPlace || pin.spilled) && !cfg.opt.ForceBulk {
				filters := 0
				for _, f := range plan.Kernel().Frags {
					if strings.HasPrefix(f.Name, "filt_") {
						filters++
					}
				}
				if want := map[bool]int{true: 0, false: 1}[pin.inPlace]; filters != want {
					t.Errorf("%s %s: %d filt_* fragments, want %d\nprogram:\n%s", label, cfg.name, filters, want, p.Prog)
					reported++
				}
			}
			tracings := []bool{false}
			if cfg.traced {
				tracings = []bool{false, true}
			}
			for _, morsel := range morsels {
				for _, noSpec := range noSpecs {
					var untracedMix [2]int64
					for _, traced := range tracings {
						before := fragmentPaths()
						cres, release, rerr := runPlan(ctx, plan, cfg.pooled, morsel, noSpec, traced)
						if rerr != nil {
							t.Errorf("%s %s (morsel=%d no-specialize=%v traced=%v): run failed: %v\nprogram:\n%s", label, cfg.name, morsel, noSpec, traced, rerr, p.Prog)
							reported++
							continue
						}
						if after := fragmentPaths(); !traced {
							untracedMix = [2]int64{after[0] - before[0], after[1] - before[1]}
						} else {
							var mix [2]int64
							for _, st := range cres.Trace.Steps {
								switch {
								case st.Kind != trace.KindFragment:
								case st.Specialized == "interp":
									mix[0]++
								case st.Specialized == "batch":
									mix[1]++
								}
							}
							if mix != untracedMix {
								t.Errorf("%s %s (morsel=%d no-specialize=%v): traced run took %d interp / %d batch fragments, untraced took %d / %d\nprogram:\n%s",
									label, cfg.name, morsel, noSpec, mix[0], mix[1], untracedMix[0], untracedMix[1], p.Prog)
								reported++
							}
						}
						for _, ref := range roots {
							iv, cv := ires.Value(ref), cres.Values[ref]
							if cv == nil {
								t.Errorf("%s %s (morsel=%d no-specialize=%v traced=%v): root v%d missing from compiled result\nprogram:\n%s",
									label, cfg.name, morsel, noSpec, traced, ref, p.Prog)
								reported++
								break
							}
							if !iv.Equal(cv) {
								t.Errorf("%s %s (morsel=%d no-specialize=%v traced=%v): root v%d diverges\nprogram:\n%s\ninterp:\n%s\ncompiled:\n%s",
									label, cfg.name, morsel, noSpec, traced, ref, p.Prog, iv, cv)
								reported++
								break
							}
						}
						release()
					}
				}
			}
		}
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		check(fmt.Sprintf("seed %d", seed), Generate(seed), nil)
	}
	if interpErrs*20 > n {
		t.Errorf("interpreter rejected %d/%d generated programs (budget is 5%%) — the generator has drifted into invalid territory", interpErrs, n)
	}
	for i := range pinned {
		pin := &pinned[i]
		check(pin.name, pin.build(t), pin)
	}
}

// TestPooledConcurrentIsolation runs under -race in CI: concurrent
// queries drawing from one shared pool must never observe each other's
// released buffers. Each goroutine runs its own generated programs,
// sharing one compiled plan per seed is deliberately avoided — the point
// here is buffer isolation, and the per-goroutine interpreter result is
// the oracle. Poison-on-release (-tags voodoo_poison) turns any
// release-too-early bug into a loud value divergence.
func TestPooledConcurrentIsolation(t *testing.T) {
	const workers = 4
	n := 40
	if testing.Short() {
		n = 10
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seed := int64(1 + w*n); seed <= int64((w+1)*n); seed++ {
				p := Generate(seed)
				ires, ierr := interp.Run(ctx, p.Prog, p.St, interp.Opts{})
				if ierr != nil {
					continue // rejection parity is TestInterpVsCompiled's job
				}
				plan, cerr := compile.Compile(p.Prog, p.St, compile.Options{})
				if cerr != nil {
					continue
				}
				cres, err := plan.RunWith(ctx, compile.RunOpts{Pool: diffPool})
				if err != nil {
					errs <- "seed " + p.Prog.String() + ": pooled run failed: " + err.Error()
					return
				}
				for _, ref := range p.Prog.Roots() {
					iv, cv := ires.Value(ref), cres.Values[ref]
					if cv == nil || !iv.Equal(cv) {
						errs <- "pooled concurrent divergence at seed program:\n" + p.Prog.String()
						cres.Release()
						return
					}
				}
				cres.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestGenerateDeterministic pins the replay contract: the same seed must
// always yield the same program and the same loaded data, or failing
// seeds could not be investigated.
func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 499} {
		a, b := Generate(seed), Generate(seed)
		if a.Prog.String() != b.Prog.String() {
			t.Fatalf("seed %d: program listing differs between runs:\n%s\nvs\n%s", seed, a.Prog, b.Prog)
		}
		if len(a.St) != len(b.St) {
			t.Fatalf("seed %d: storage differs in size", seed)
		}
		for name, av := range a.St {
			bv, ok := b.St[name]
			if !ok || !av.Equal(bv) {
				t.Fatalf("seed %d: loaded vector %q differs between runs", seed, name)
			}
		}
	}
}

// TestGeneratorCoversAlgebra keeps the generator honest: across the
// corpus, every operator family of Table 2 the harness is meant to
// exercise must actually appear.
func TestGeneratorCoversAlgebra(t *testing.T) {
	seen := map[core.Op]bool{}
	n := fullPrograms
	if testing.Short() {
		n = shortPrograms
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		for _, s := range Generate(seed).Prog.Stmts {
			seen[s.Op] = true
		}
	}
	want := []core.Op{
		core.OpLoad, core.OpConstant, core.OpRange, core.OpCross,
		core.OpAdd, core.OpSubtract, core.OpMultiply, core.OpDivide,
		core.OpModulo, core.OpBitShift, core.OpLogicalAnd, core.OpLogicalOr,
		core.OpGreater, core.OpEquals,
		core.OpZip, core.OpProject, core.OpUpsert,
		core.OpGather, core.OpScatter, core.OpMaterialize, core.OpBreak,
		core.OpPartition,
		core.OpFoldSelect, core.OpFoldSum, core.OpFoldMin, core.OpFoldMax, core.OpFoldScan,
	}
	for _, op := range want {
		if !seen[op] {
			t.Errorf("no generated program uses %v", op)
		}
	}
}

// TestPersistSurvivesRelease covers the one value that outlives a pooled
// run: a Persist writes into storage, so both backends must copy the vector
// off the run's arena (vector.UnpooledCopy) before Release recycles it. Each
// backend persists from a pooled run, releases, and runs a second pooled
// query that draws the recycled arena; the stored vector must still hold its
// values. Under -tags voodoo_poison the release alone overwrites a vector
// that was not copied.
func TestPersistSurvivesRelease(t *testing.T) {
	const n = 5000
	in := make([]int64, n)
	want := make([]int64, n)
	for i := range in {
		in[i], want[i] = int64(i), int64(i)*3
	}
	b := core.NewBuilder()
	b.Persist("tripled", b.Multiply(b.Load("input"), b.Constant(3)))
	prog := b.Program()
	ctx := context.Background()

	backends := map[string]func(st interp.MemStorage) (release func(), err error){
		"interp": func(st interp.MemStorage) (func(), error) {
			res, err := interp.Run(ctx, prog, st, interp.Opts{Pool: diffPool})
			if err != nil {
				return nil, err
			}
			return res.Release, nil
		},
		"compiled": func(st interp.MemStorage) (func(), error) {
			plan, err := compile.Compile(prog, st, compile.Options{})
			if err != nil {
				return nil, err
			}
			res, err := plan.RunWith(ctx, compile.RunOpts{Pool: diffPool})
			if err != nil {
				return nil, err
			}
			return res.Release, nil
		},
	}
	for name, run := range backends {
		t.Run(name, func(t *testing.T) {
			st := interp.MemStorage{"input": vector.New(n).Set("val", vector.NewInt(in))}
			// The second run, over other data and into a storage of its own,
			// recycles the first one's arena.
			other := interp.MemStorage{"input": vector.New(n).Set("val", vector.NewInt(make([]int64, n)))}
			for _, into := range []interp.MemStorage{st, other} {
				release, err := run(into)
				if err != nil {
					t.Fatal(err)
				}
				release()
			}
			got := st["tripled"]
			if got == nil {
				t.Fatal("Persist stored nothing")
			}
			if !got.Equal(vector.New(n).Set("val", vector.NewInt(want))) {
				t.Errorf("persisted vector changed after its run's arena was recycled: %v", got)
			}
		})
	}
}
