package compile

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"voodoo/internal/core"
	"voodoo/internal/interp"
	"voodoo/internal/storage"
	"voodoo/internal/vector"
)

// diffTest runs the program through the interpreter and the compiler (with
// the given options) and requires identical root values.
func diffTest(t *testing.T, b *core.Builder, st interp.MemStorage, opt Options) {
	t.Helper()
	p := b.Program()
	want, err := interp.Run(context.Background(), p, st, interp.Opts{})
	if err != nil {
		t.Fatalf("interp: %v\nprogram:\n%s", err, p)
	}
	plan, err := Compile(p, st, opt)
	if err != nil {
		t.Fatalf("compile: %v\nprogram:\n%s", err, p)
	}
	got, err := plan.RunWith(context.Background(), RunOpts{})
	if err != nil {
		t.Fatalf("run: %v\nprogram:\n%s\nkernel:\n%s", err, p, plan.Kernel())
	}
	for ref, gv := range got.Values {
		wv := want.Value(ref)
		if !gv.Equal(wv) {
			t.Fatalf("root v%d differs\nprogram:\n%s\nkernel:\n%s\nwant:\n%s\ngot:\n%s",
				ref, p, plan.Kernel(), wv, gv)
		}
	}
	if len(got.Values) == 0 {
		t.Fatalf("no root values produced\nprogram:\n%s", p)
	}
}

func bothModes(t *testing.T, name string, f func(t *testing.T, opt Options)) {
	t.Helper()
	for _, tc := range []struct {
		label string
		opt   Options
	}{
		{"branching", Options{}},
		{"predicated", Options{Predication: true}},
		{"bulk", Options{ForceBulk: true}},
	} {
		t.Run(name+"/"+tc.label, func(t *testing.T) { f(t, tc.opt) })
	}
}

func intVec(name string, vals ...int64) *vector.Vector {
	return vector.New(len(vals)).Set(name, vector.NewInt(vals))
}

func seqVec(name string, n int) *vector.Vector {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	return vector.New(n).Set(name, vector.NewInt(vals))
}

func TestCompileElementwise(t *testing.T) {
	bothModes(t, "elementwise", func(t *testing.T, opt Options) {
		st := interp.MemStorage{"t": seqVec("v", 100)}
		b := core.NewBuilder()
		in := b.Load("t")
		x := b.Add(in, b.Constant(10))
		y := b.Multiply(x, x)
		z := b.Subtract(y, in)
		b.Materialize(z, z, "")
		diffTest(t, b, st, opt)
	})
}

func TestCompileFigure3Hierarchical(t *testing.T) {
	bothModes(t, "fig3", func(t *testing.T, opt Options) {
		st := interp.MemStorage{"input": seqVec("val", 64)}
		b := core.NewBuilder()
		input := b.Load("input")
		ids := b.Range(input)
		partitionIDs := b.Project("partition", b.Divide(ids, b.Constant(8)), "")
		inputWPart := b.Zip("val", input, "val", "partition", partitionIDs, "partition")
		pSum := b.FoldSum(inputWPart, "partition", "val")
		b.GlobalSum(pSum, "")
		diffTest(t, b, st, opt)
	})
}

func TestCompileFigure4SIMD(t *testing.T) {
	bothModes(t, "fig4", func(t *testing.T, opt Options) {
		st := interp.MemStorage{"input": seqVec("val", 64)}
		b := core.NewBuilder()
		input := b.Load("input")
		ids := b.Range(input)
		laneIDs := b.Project("partition", b.Modulo(ids, b.Constant(4)), "")
		inputWPart := b.Zip("val", input, "val", "partition", laneIDs, "partition")
		positions := b.Partition("pos", laneIDs, "partition", b.RangeN(0, 4, 1), "")
		posVec := b.Upsert(inputWPart, "pos", positions, "pos")
		scattered := b.Scatter(inputWPart, input, "", posVec, "pos")
		pSum := b.FoldSum(scattered, "partition", "val")
		b.GlobalSum(pSum, "")
		diffTest(t, b, st, opt)
	})
}

func TestCompileSelectGatherSum(t *testing.T) {
	// The fused selection pipeline of Figure 8: filter, gather, aggregate.
	bothModes(t, "selectsum", func(t *testing.T, opt Options) {
		vals := make([]int64, 200)
		quantity := make([]float64, 200)
		r := rand.New(rand.NewSource(7))
		for i := range vals {
			vals[i] = r.Int63n(100)
			quantity[i] = float64(r.Intn(50))
		}
		st := interp.MemStorage{"lineitem": vector.New(200).
			Set("shipdate", vector.NewInt(vals)).
			Set("quantity", vector.NewFloat(quantity))}
		for _, runLen := range []int{200, 50, 8} {
			b := core.NewBuilder()
			li := b.Load("lineitem")
			ids := b.Range(li)
			fold := b.Project("fold", b.Divide(ids, b.Constant(int64(runLen))), "")
			withFold := b.Zip("shipdate", li, "shipdate", "fold", fold, "fold")
			pred := b.Arith(core.OpGreater, "v", withFold, "shipdate", b.Constant(42), "")
			predWithFold := b.Zip("v", pred, "v", "fold", fold, "fold")
			positions := b.FoldSelect(predWithFold, "fold", "v")
			gathered := b.Gather(li, positions, "")
			b.FoldSum(gathered, "", "quantity")
			diffTest(t, b, st, opt)
		}
	})
}

func TestCompileSelectPositionsMaterialized(t *testing.T) {
	bothModes(t, "selpos", func(t *testing.T, opt Options) {
		st := interp.MemStorage{"t": intVec("v", 5, 0, 3, 0, 0, 9, 1, 0, 0, 2, 8, 0)}
		b := core.NewBuilder()
		in := b.Load("t")
		pred := b.Greater(in, b.Constant(2))
		sel := b.FoldSelect(pred, "", "")
		b.Materialize(sel, sel, "")
		diffTest(t, b, st, opt)
	})
}

func TestCompileFilteredValuesMaterialized(t *testing.T) {
	// Figure 1's selection: copy qualifying values out.
	bothModes(t, "filtermat", func(t *testing.T, opt Options) {
		vals := make([]int64, 64)
		r := rand.New(rand.NewSource(3))
		for i := range vals {
			vals[i] = r.Int63n(10)
		}
		st := interp.MemStorage{"t": intVec("v", vals...)}
		for _, runLen := range []int{64, 16} {
			b := core.NewBuilder()
			in := b.Load("t")
			ids := b.Range(in)
			fold := b.Project("fold", b.Divide(ids, b.Constant(int64(runLen))), "")
			pred := b.Greater(in, b.Constant(4))
			withFold := b.Zip("v", pred, "", "fold", fold, "fold")
			sel := b.FoldSelect(withFold, "fold", "v")
			b.Gather(in, sel, "")
			diffTest(t, b, st, opt)
		}
	})
}

func TestCompileGroupedAggregation(t *testing.T) {
	// Figure 10/11: group by a data attribute via Partition + Scatter +
	// FoldSum.
	bothModes(t, "groupby", func(t *testing.T, opt Options) {
		n := 120
		groups := make([]int64, n)
		vals := make([]float64, n)
		r := rand.New(rand.NewSource(11))
		for i := range groups {
			groups[i] = r.Int63n(5)
			vals[i] = float64(r.Intn(100))
		}
		st := interp.MemStorage{"t": vector.New(n).
			Set("g", vector.NewInt(groups)).
			Set("v", vector.NewFloat(vals))}
		b := core.NewBuilder()
		in := b.Load("t")
		pivots := b.RangeN(0, 5, 1)
		pos := b.Partition("pos", in, "g", pivots, "")
		withPos := b.Upsert(in, "pos", pos, "pos")
		scattered := b.Scatter(in, in, "", withPos, "pos")
		b.FoldSum(scattered, "g", "v")
		diffTest(t, b, st, opt)
	})
}

func TestCompileGroupedMinMax(t *testing.T) {
	bothModes(t, "groupminmax", func(t *testing.T, opt Options) {
		n := 60
		groups := make([]int64, n)
		vals := make([]int64, n)
		r := rand.New(rand.NewSource(13))
		for i := range groups {
			groups[i] = r.Int63n(4)
			vals[i] = r.Int63n(1000) - 500
		}
		st := interp.MemStorage{"t": vector.New(n).
			Set("g", vector.NewInt(groups)).
			Set("v", vector.NewInt(vals))}
		for _, agg := range []string{"min", "max"} {
			b := core.NewBuilder()
			in := b.Load("t")
			pivots := b.RangeN(0, 4, 1)
			pos := b.Partition("pos", in, "g", pivots, "")
			withPos := b.Upsert(in, "pos", pos, "pos")
			scattered := b.Scatter(in, in, "", withPos, "pos")
			if agg == "min" {
				b.FoldMin(scattered, "g", "v")
			} else {
				b.FoldMax(scattered, "g", "v")
			}
			diffTest(t, b, st, opt)
		}
	})
}

func TestCompileGatherWithDataPositions(t *testing.T) {
	// An indexed FK join: positions are data, some out of bounds.
	bothModes(t, "fkgather", func(t *testing.T, opt Options) {
		st := interp.MemStorage{
			"fact":   intVec("fk", 3, 1, 4, 1, 5, 9, 2, 6, 99, -1),
			"target": intVec("v", 100, 101, 102, 103, 104, 105, 106, 107, 108, 109),
		}
		b := core.NewBuilder()
		fact := b.Load("fact")
		target := b.Load("target")
		g := b.Gather(target, fact, "fk")
		b.FoldSum(g, "", "")
		diffTest(t, b, st, opt)
	})
}

func TestCompileFoldMinMaxPlain(t *testing.T) {
	bothModes(t, "minmax", func(t *testing.T, opt Options) {
		st := interp.MemStorage{"t": intVec("v", 5, -2, 9, 4, 4, 1, 0, 7)}
		b := core.NewBuilder()
		in := b.Load("t")
		ids := b.Range(in)
		fold := b.Project("fold", b.Divide(ids, b.Constant(4)), "")
		withFold := b.Zip("v", in, "", "fold", fold, "fold")
		b.FoldMin(withFold, "fold", "v")
		b.FoldMax(withFold, "fold", "v")
		diffTest(t, b, st, opt)
	})
}

func TestCompileFoldScan(t *testing.T) {
	bothModes(t, "scan", func(t *testing.T, opt Options) {
		st := interp.MemStorage{"t": intVec("v", 1, 2, 3, 4, 5, 6)}
		b := core.NewBuilder()
		in := b.Load("t")
		ids := b.Range(in)
		fold := b.Project("fold", b.Divide(ids, b.Constant(3)), "")
		withFold := b.Zip("v", in, "", "fold", fold, "fold")
		b.FoldScan(withFold, "fold", "v")
		diffTest(t, b, st, opt)
	})
}

func TestCompileRealScatter(t *testing.T) {
	bothModes(t, "scatter", func(t *testing.T, opt Options) {
		st := interp.MemStorage{
			"t":   intVec("v", 10, 20, 30, 40),
			"pos": intVec("p", 3, 0, 2, 9), // 9 is out of bounds: dropped
		}
		b := core.NewBuilder()
		in := b.Load("t")
		pos := b.Load("pos")
		sc := b.Scatter(in, in, "", pos, "p")
		b.Materialize(sc, sc, "")
		diffTest(t, b, st, opt)
	})
}

func TestCompileCrossViaBulk(t *testing.T) {
	bothModes(t, "cross", func(t *testing.T, opt Options) {
		st := interp.MemStorage{"a": seqVec("v", 3), "b": seqVec("w", 4)}
		b := core.NewBuilder()
		x := b.Load("a")
		y := b.Load("b")
		cr := b.Cross("i", x, "j", y)
		b.Materialize(cr, cr, "")
		diffTest(t, b, st, opt)
	})
}

func TestCompilePersist(t *testing.T) {
	st := interp.MemStorage{"t": seqVec("v", 10)}
	b := core.NewBuilder()
	in := b.Load("t")
	doubled := b.Multiply(in, b.Constant(2))
	b.Persist("out", doubled)
	plan, err := Compile(b.Program(), st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.RunWith(context.Background(), RunOpts{}); err != nil {
		t.Fatal(err)
	}
	out, err := st.LoadVector("out")
	if err != nil {
		t.Fatal(err)
	}
	if out.SingleCol().Int(4) != 8 {
		t.Fatalf("persisted value wrong: %v", out)
	}
}

func TestCompileStatsCollected(t *testing.T) {
	st := interp.MemStorage{"t": seqVec("v", 100)}
	b := core.NewBuilder()
	in := b.Load("t")
	b.GlobalSum(b.Multiply(in, in), "")
	plan, err := Compile(b.Program(), st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.RunWith(context.Background(), RunOpts{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Frags) == 0 {
		t.Fatal("expected fragment stats")
	}
	var items int64
	for _, fs := range res.Stats.Frags {
		items += fs.Items
	}
	if items < 100 {
		t.Fatalf("items = %d, want >= 100", items)
	}
}

// TestCompileRandomPrograms differentially tests randomly generated
// programs against the interpreter in all three compiler modes.
func TestCompileRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			b, st := randomProgram(rand.New(rand.NewSource(seed)))
			for _, opt := range []Options{{}, {Predication: true}, {ForceBulk: true}} {
				diffTest(t, b, st, opt)
			}
		})
	}
}

// randomProgram builds a random but well-formed single-attribute pipeline.
func randomProgram(r *rand.Rand) (*core.Builder, interp.MemStorage) {
	n := 16 + r.Intn(100)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = r.Int63n(64)
	}
	st := interp.MemStorage{"t": intVec("v", vals...)}
	b := core.NewBuilder()
	cur := b.Load("t")
	depth := 2 + r.Intn(6)
	for d := 0; d < depth; d++ {
		switch r.Intn(8) {
		case 0:
			cur = b.Add(cur, b.Constant(r.Int63n(10)))
		case 1:
			cur = b.Multiply(cur, b.Constant(1+r.Int63n(4)))
		case 2:
			cur = b.Greater(cur, b.Constant(r.Int63n(64)))
		case 3:
			cur = b.Modulo(cur, b.Constant(1+r.Int63n(16)))
		case 4:
			ids := b.Range(cur)
			runLen := int64(1 + r.Intn(n))
			fold := b.Project("fold", b.Divide(ids, b.Constant(runLen)), "")
			withFold := b.Zip("v", cur, "", "fold", fold, "fold")
			cur = b.FoldSum(withFold, "fold", "v")
			cur = b.Project("v", cur, "")
		case 5:
			pred := b.Greater(cur, b.Constant(r.Int63n(64)))
			sel := b.FoldSelect(pred, "", "")
			cur = b.Gather(cur, sel, "")
		case 6:
			cur = b.Materialize(cur, cur, "")
		case 7:
			ids := b.Range(cur)
			rev := b.Subtract(b.Constant(int64(n-1)), ids)
			cur = b.Gather(cur, rev, "")
		}
	}
	// Always end with a global fold so the root is small and meaningful.
	b.FoldSum(cur, "", "")
	return b, st
}

// TestCompileGatherThroughFilteredGather exercises the fused FK-lookup
// chain of Figure 16's branching variant: select rows, gather their foreign
// keys, gather the target through those keys, aggregate — one fragment.
func TestCompileGatherThroughFilteredGather(t *testing.T) {
	bothModes(t, "fkchain", func(t *testing.T, opt Options) {
		r := rand.New(rand.NewSource(21))
		n, m := 120, 40
		fk := make([]int64, n)
		v := make([]int64, n)
		tv := make([]float64, m)
		for i := range fk {
			fk[i] = r.Int63n(int64(m))
			v[i] = r.Int63n(100)
		}
		for i := range tv {
			tv[i] = float64(i) * 1.5
		}
		st := interp.MemStorage{
			"fact": vector.New(n).
				Set("fk", vector.NewInt(fk)).
				Set("v", vector.NewInt(v)),
			"target": vector.New(m).Set("tv", vector.NewFloat(tv)),
		}
		for _, runLen := range []int{120, 30} {
			b := core.NewBuilder()
			fact := b.Load("fact")
			target := b.Load("target")
			ids := b.Range(fact)
			fold := b.Project("fold", b.Divide(ids, b.Constant(int64(runLen))), "")
			pred := b.Arith(core.OpGreater, "p", fact, "v", b.Constant(50), "")
			withFold := b.Zip("p", pred, "p", "fold", fold, "fold")
			sel := b.FoldSelect(withFold, "fold", "p")
			fkSel := b.Gather(fact, sel, "")
			tvals := b.Gather(target, fkSel, "fk")
			b.FoldSum(tvals, "", "tv")
			diffTest(t, b, st, opt)
		}
	})
}

// TestCompileRandomMultiColumnPrograms extends the differential fuzzing to
// float columns, grouped aggregation, virtual scatters and multi-attribute
// pipelines.
func TestCompileRandomMultiColumnPrograms(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			b, st := randomRichProgram(rand.New(rand.NewSource(seed + 1000)))
			for _, opt := range []Options{{}, {Predication: true}, {ForceBulk: true}} {
				diffTest(t, b, st, opt)
			}
		})
	}
}

// randomRichProgram builds a random pipeline over a two-column (int group,
// float value) table, exercising grouping, lane scatters and filtered
// aggregation.
func randomRichProgram(r *rand.Rand) (*core.Builder, interp.MemStorage) {
	n := 16 + r.Intn(120)
	k := int64(2 + r.Intn(6))
	groups := make([]int64, n)
	vals := make([]float64, n)
	for i := range groups {
		groups[i] = r.Int63n(k)
		vals[i] = float64(r.Intn(2000)-1000) / 16
	}
	st := interp.MemStorage{"t": vector.New(n).
		Set("g", vector.NewInt(groups)).
		Set("v", vector.NewFloat(vals))}
	b := core.NewBuilder()
	cur := b.Load("t")

	switch r.Intn(4) {
	case 0:
		// Filtered grouped aggregation (the TPC-H shape).
		pred := b.Arith(core.OpGreater, "p", cur, "v", b.ConstantF(0), "")
		ids := b.Range(cur)
		runLen := int64(1 + r.Intn(n))
		fold := b.Project("fold", b.Divide(ids, b.Constant(runLen)), "")
		pf := b.Zip("p", pred, "p", "fold", fold, "fold")
		sel := b.FoldSelect(pf, "fold", "p")
		cur = b.Gather(cur, sel, "")
		fallthrough
	case 1:
		// Grouped aggregation via Partition + Scatter + folds.
		pivots := b.RangeN(0, int(k), 1)
		pos := b.Partition("pos", cur, "g", pivots, "")
		withPos := b.Upsert(cur, "pos", pos, "pos")
		scattered := b.Scatter(cur, cur, "", withPos, "pos")
		b.FoldSum(scattered, "g", "v")
		if r.Intn(2) == 0 {
			b.FoldMax(scattered, "g", "v")
		}
		b.FoldCount(scattered, "g")
	case 2:
		// Lane (SIMD-style) aggregation via virtual scatter.
		lanes := int64(2 + r.Intn(4))
		ids := b.Range(cur)
		laneIDs := b.Project("lane", b.Modulo(ids, b.Constant(lanes)), "")
		withLane := b.Zip("v", cur, "v", "lane", laneIDs, "lane")
		positions := b.Partition("pos", laneIDs, "lane", b.RangeN(0, int(lanes), 1), "")
		posVec := b.Upsert(withLane, "pos", positions, "pos")
		scattered := b.Scatter(withLane, cur, "", posVec, "pos")
		p := b.FoldSum(scattered, "lane", "v")
		b.GlobalSum(p, "")
	case 3:
		// Arithmetic pipeline with a float fold and a scan.
		e := b.Arith(core.OpMultiply, "x", cur, "v", b.ConstantF(1.5), "")
		e2 := b.Arith(core.OpAdd, "x", e, "", cur, "g")
		ids := b.Range(cur)
		runLen := int64(1 + r.Intn(16))
		fold := b.Project("fold", b.Divide(ids, b.Constant(runLen)), "")
		withFold := b.Zip("x", e2, "", "fold", fold, "fold")
		b.FoldSum(withFold, "fold", "x")
		b.FoldScan(withFold, "fold", "x")
	}
	return b, st
}

// TestBreakForcesLoopFission: the paper switches Figure 14's Single Loop to
// Separate Loops by inserting a Break between the two gathers — a pure
// tuning hint that forces a fragment seam.
func TestBreakForcesLoopFission(t *testing.T) {
	n, m := 64, 16
	pos := make([]int64, n)
	c1 := make([]float64, m)
	c2 := make([]float64, m)
	r := rand.New(rand.NewSource(44))
	for i := range pos {
		pos[i] = r.Int63n(int64(m))
	}
	for i := range c1 {
		c1[i] = float64(i)
		c2[i] = float64(i) * 2
	}
	st := interp.MemStorage{
		"pos": vector.New(n).Set("p", vector.NewInt(pos)),
		"c1":  vector.New(m).Set("v", vector.NewFloat(c1)),
		"c2":  vector.New(m).Set("v", vector.NewFloat(c2)),
	}
	build := func(withBreak bool) (*core.Program, core.Ref) {
		b := core.NewBuilder()
		p := b.Load("pos")
		t1 := b.Load("c1")
		t2 := b.Load("c2")
		g1 := b.Gather(t1, p, "p")
		if withBreak {
			g1 = b.Break(g1, g1, "")
		}
		g2 := b.Gather(t2, p, "p")
		sum := b.Add(g1, g2)
		root := b.FoldSum(sum, "", "")
		return b.Program(), root
	}

	fused, rootA := build(false)
	fissioned, rootB := build(true)
	planA, err := Compile(fused, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	planB, err := Compile(fissioned, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(len(planB.Kernel().Frags) > len(planA.Kernel().Frags)) {
		t.Errorf("Break should add a fragment seam: %d vs %d fragments",
			len(planB.Kernel().Frags), len(planA.Kernel().Frags))
	}
	resA, err := planA.RunWith(context.Background(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := planB.RunWith(context.Background(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	a := resA.Values[rootA].SingleCol().Float(0)
	bv := resB.Values[rootB].SingleCol().Float(0)
	if a != bv {
		t.Errorf("Break changed the result: %g vs %g", a, bv)
	}
}

// TestCompileErrors covers the compiler's error surfaces.
func TestCompileErrors(t *testing.T) {
	st := interp.MemStorage{"t": seqVec("v", 8)}

	// Unknown table at compile time (sizes are compile-time constants).
	b := core.NewBuilder()
	b.Load("missing")
	if _, err := Compile(b.Program(), st, Options{}); err == nil {
		t.Error("expected unknown-table error")
	}

	// Missing attribute in arithmetic.
	b = core.NewBuilder()
	in := b.Load("t")
	b.Arith(core.OpAdd, "x", in, "nope", in, "v")
	if _, err := Compile(b.Program(), st, Options{}); err == nil {
		t.Error("expected missing-attribute error")
	}

	// Missing fold value attribute.
	b = core.NewBuilder()
	in = b.Load("t")
	b.FoldSum(in, "", "nope")
	if _, err := Compile(b.Program(), st, Options{}); err == nil {
		t.Error("expected missing-fold-value error")
	}

	// Structurally invalid program (forward reference).
	var p core.Program
	p.Add(core.Stmt{Op: core.OpProject, Args: []core.Ref{7}, Kp: []string{""}, Out: []string{"x"}})
	if _, err := Compile(&p, st, Options{}); err == nil {
		t.Error("expected validation error")
	}

	// Runtime error surfaces from Plan.Run (division by zero).
	b = core.NewBuilder()
	in = b.Load("t")
	z := b.Subtract(in, in)
	b.Divide(in, z)
	plan, err := Compile(b.Program(), st, Options{})
	if err != nil {
		t.Fatalf("compile should succeed, run should fail: %v", err)
	}
	if _, err := plan.RunWith(context.Background(), RunOpts{}); err == nil {
		t.Error("expected division-by-zero at run time")
	}
}

// TestCompilePersistUnderBulk exercises Persist in the Ocelot execution
// mode (bulk steps around maintenance ops).
func TestCompilePersistUnderBulk(t *testing.T) {
	st := interp.MemStorage{"t": seqVec("v", 12)}
	b := core.NewBuilder()
	in := b.Load("t")
	tripled := b.Multiply(in, b.Constant(3))
	b.Persist("out", tripled)
	plan, err := Compile(b.Program(), st, Options{ForceBulk: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.RunWith(context.Background(), RunOpts{}); err != nil {
		t.Fatal(err)
	}
	v, err := st.LoadVector("out")
	if err != nil {
		t.Fatal(err)
	}
	if v.SingleCol().Int(4) != 12 {
		t.Fatalf("persisted wrong value: %v", v)
	}
}

// TestGroupCompactFeedsGather exercises the runtime expansion path: a
// grouped fold result consumed by a position-sensitive operator.
func TestGroupCompactFeedsGather(t *testing.T) {
	bothModes(t, "groupexpand", func(t *testing.T, opt Options) {
		n := 40
		groups := make([]int64, n)
		vals := make([]int64, n)
		r := rand.New(rand.NewSource(5))
		for i := range groups {
			groups[i] = r.Int63n(4)
			vals[i] = r.Int63n(50)
		}
		st := interp.MemStorage{"t": vector.New(n).
			Set("g", vector.NewInt(groups)).
			Set("v", vector.NewInt(vals))}
		b := core.NewBuilder()
		in := b.Load("t")
		pivots := b.RangeN(0, 4, 1)
		pos := b.Partition("pos", in, "g", pivots, "")
		withPos := b.Upsert(in, "pos", pos, "pos")
		scattered := b.Scatter(in, in, "", withPos, "pos")
		sums := b.FoldSum(scattered, "g", "v")
		// Gather the padded fold output at fixed positions — forces the
		// group-compact layout to expand.
		probe := b.Load("probe")
		b.Gather(sums, probe, "p")
		st["probe"] = intVec("p", 0, 5, 10, 39)
		diffTest(t, b, st, opt)
	})
}

// TestScatteredValueMaterialized exercises materializeScattered: a virtual
// lane scatter whose value is consumed element-wise (not folded).
func TestScatteredValueMaterialized(t *testing.T) {
	bothModes(t, "scatmat", func(t *testing.T, opt Options) {
		st := interp.MemStorage{"t": seqVec("v", 24)}
		b := core.NewBuilder()
		in := b.Load("t")
		ids := b.Range(in)
		lanes := b.Project("lane", b.Modulo(ids, b.Constant(4)), "")
		withLane := b.Zip("v", in, "", "lane", lanes, "lane")
		positions := b.Partition("pos", lanes, "lane", b.RangeN(0, 4, 1), "")
		posVec := b.Upsert(withLane, "pos", positions, "pos")
		scattered := b.Scatter(withLane, in, "", posVec, "pos")
		// Element-wise consumption forces σ(idx) materialization.
		b.Arith(core.OpAdd, "x", scattered, "v", b.Constant(100), "")
		diffTest(t, b, st, opt)
	})
}

// TestFoldOverFoldCompactWithRuns exercises a second-level fold with its
// own run structure over a compact first-level result.
func TestFoldOverFoldCompactWithRuns(t *testing.T) {
	bothModes(t, "twolevel", func(t *testing.T, opt Options) {
		st := interp.MemStorage{"t": seqVec("v", 64)}
		b := core.NewBuilder()
		in := b.Load("t")
		ids := b.Range(in)
		fold1 := b.Project("fold", b.Divide(ids, b.Constant(4)), "")
		with1 := b.Zip("v", in, "", "fold", fold1, "fold")
		p1 := b.FoldSum(with1, "fold", "v") // 16 partials, stride 4
		// Second level: fold the padded partial vector in runs of 16
		// (i.e. 4 compact slots per run).
		ids2 := b.Range(p1)
		fold2 := b.Project("fold", b.Divide(ids2, b.Constant(16)), "")
		with2 := b.Zip("v", p1, "", "fold", fold2, "fold")
		b.FoldSum(with2, "fold", "v")
		diffTest(t, b, st, opt)
	})
}

// TestNonDyadicRunLengthsFuse pins the fix for a latent float-metadata bug:
// with the step held as an exact rational, a Divide by 3 (or any
// non-power-of-two) still yields a statically known run length, so the fold
// compiles into a fused fragment instead of silently falling back to bulk.
func TestNonDyadicRunLengthsFuse(t *testing.T) {
	st := interp.MemStorage{"t": seqVec("v", 90)}
	for _, runLen := range []int64{3, 7, 30, 50} {
		b := core.NewBuilder()
		in := b.Load("t")
		ids := b.Range(in)
		fold := b.Project("fold", b.Divide(ids, b.Constant(runLen)), "")
		withFold := b.Zip("v", in, "", "fold", fold, "fold")
		b.FoldSum(withFold, "fold", "v")
		plan, err := Compile(b.Program(), st, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Kernel().Frags) != 1 {
			t.Errorf("runLen %d: %d fragments, want 1 fused fold",
				runLen, len(plan.Kernel().Frags))
			continue
		}
		f := plan.Kernel().Frags[0]
		wantExtent := (90 + int(runLen) - 1) / int(runLen)
		if f.Extent != wantExtent || f.Intent != int(runLen) {
			t.Errorf("runLen %d: extent=%d intent=%d, want %d/%d",
				runLen, f.Extent, f.Intent, wantExtent, runLen)
		}
		diffTest(t, b, st, Options{})
	}
}

// selectNothing compiles and runs a program whose selection no row passes
// against a statistics-carrying catalog whose int column v holds [0, n),
// and requires root values identical to the interpreter's with every slot
// ε or zero. The selection runs as an ordinary fragment: column statistics
// never drop a step at plan time.
func selectNothing(t *testing.T, n int, build func(b *core.Builder), opt Options) {
	t.Helper()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	cat := storage.NewCatalog().Add(storage.NewTable("t").AddInt("v", vals))
	b := core.NewBuilder()
	build(b)
	p := b.Program()
	want, err := interp.Run(context.Background(), p, cat, interp.Opts{})
	if err != nil {
		t.Fatalf("interp: %v\nprogram:\n%s", err, p)
	}
	plan, err := Compile(p, cat, opt)
	if err != nil {
		t.Fatalf("compile: %v\nprogram:\n%s", err, p)
	}
	got, err := plan.RunWith(context.Background(), RunOpts{})
	if err != nil {
		t.Fatalf("run: %v\nprogram:\n%s\nkernel:\n%s", err, p, plan.Kernel())
	}
	if len(got.Values) == 0 {
		t.Fatalf("no root values produced\nprogram:\n%s", p)
	}
	for ref, gv := range got.Values {
		if wv := want.Value(ref); !gv.Equal(wv) {
			t.Fatalf("root v%d differs\nprogram:\n%s\nkernel:\n%s\nwant:\n%s\ngot:\n%s",
				ref, p, plan.Kernel(), wv, gv)
		}
		for _, name := range gv.Names() {
			c := gv.Col(name)
			for i := range c.Len() {
				if c.Valid(i) && c.Float(i) != 0 {
					t.Fatalf("root v%d.%s[%d] = %g, want ε or 0\nprogram:\n%s", ref, name, i, c.Float(i), p)
				}
			}
		}
	}
}

// TestZoneMapPrunesImpossibleSelection: a selection whose predicate no
// row of the column can satisfy (v > 1000 over [0, 100)) yields all-ε
// results identical to the interpreter's in both branching and predicated
// modes, with no plan-time pruning to produce them.
func TestZoneMapPrunesImpossibleSelection(t *testing.T) {
	for _, tc := range []struct {
		label string
		opt   Options
	}{
		{"branching", Options{}},
		{"predicated", Options{Predication: true}},
	} {
		t.Run(tc.label, func(t *testing.T) {
			selectNothing(t, 100, func(b *core.Builder) {
				sel := b.FoldSelect(b.Greater(b.Load("t"), b.Constant(1000)), "", "")
				b.Materialize(sel, sel, "")
			}, tc.opt)
		})
	}
}

// TestZoneMapPrunesImpossibleFilter: the gather-through-select fast path
// (Figure 1's selection) over a predicate no row passes yields all-ε
// results identical to the interpreter's.
func TestZoneMapPrunesImpossibleFilter(t *testing.T) {
	selectNothing(t, 64, func(b *core.Builder) {
		in := b.Load("t")
		b.Gather(in, b.FoldSelect(b.Greater(in, b.Constant(500)), "", ""), "")
	}, Options{})
}

// TestCompileLoadBindsWhatIsRead: a Load binds the columns its consumers'
// keypaths read and no others, and all of them when a consumer takes the
// whole vector, when it is a root, or when fusion is off (a bulk step
// converts its whole operands). Every program still answers as the
// interpreter does.
func TestCompileLoadBindsWhatIsRead(t *testing.T) {
	st := interp.MemStorage{"t": vector.New(6).
		Set("a", vector.NewInt([]int64{1, 2, 3, 4, 5, 6})).
		Set("b", vector.NewInt([]int64{6, 5, 4, 3, 2, 1})).
		Set("c", vector.NewInt([]int64{0, 1, 0, 1, 0, 1}))}
	for _, tc := range []struct {
		name  string
		build func(b *core.Builder)
		opt   Options
		bound string
	}{
		{"project", func(b *core.Builder) {
			b.Add(b.Project("x", b.Load("t"), "a"), b.Constant(1))
		}, Options{}, "t.a"},
		{"zip", func(b *core.Builder) {
			li := b.Load("t")
			b.Zip("x", li, "a", "y", li, "c")
		}, Options{}, "t.a t.c"},
		{"upsert-whole", func(b *core.Builder) {
			b.Upsert(b.Load("t"), "z", b.Constant(1), "")
		}, Options{}, "t.a t.b t.c"},
		{"root", func(b *core.Builder) { b.Load("t") }, Options{}, "t.a t.b t.c"},
		{"bulk", func(b *core.Builder) {
			b.Add(b.Project("x", b.Load("t"), "a"), b.Constant(1))
		}, Options{ForceBulk: true}, "t.a t.b t.c"},
	} {
		b := core.NewBuilder()
		tc.build(b)
		plan, err := Compile(b.Program(), st, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var bound []string
		for _, d := range plan.Kernel().Bufs {
			if strings.HasPrefix(d.Name, "t.") {
				bound = append(bound, d.Name)
			}
		}
		if got := strings.Join(bound, " "); got != tc.bound {
			t.Errorf("%s: binds %q, want %q", tc.name, got, tc.bound)
		}
		diffTest(t, b, st, tc.opt)
	}
}
