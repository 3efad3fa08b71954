package interp

import (
	"context"
	"testing"

	"voodoo/internal/core"
	"voodoo/internal/vector"
)

func intVec(name string, vals ...int64) *vector.Vector {
	return vector.New(len(vals)).Set(name, vector.NewInt(vals))
}

func mustRun(t *testing.T, b *core.Builder, st Storage) *Result {
	t.Helper()
	res, err := Run(context.Background(), b.Program(), st, Opts{})
	if err != nil {
		t.Fatalf("Run: %v\nprogram:\n%s", err, b.Program())
	}
	return res
}

func wantInts(t *testing.T, c *vector.Column, want ...int64) {
	t.Helper()
	if c.Len() != len(want) {
		t.Fatalf("len = %d, want %d", c.Len(), len(want))
	}
	for i, w := range want {
		if !c.Valid(i) {
			t.Fatalf("slot %d is ε, want %d", i, w)
		}
		if c.Int(i) != w {
			t.Fatalf("slot %d = %d, want %d", i, c.Int(i), w)
		}
	}
}

// wantSparse checks a column against expected values where -1 entries in
// want mark slots that must be empty (ε).
func wantSparse(t *testing.T, c *vector.Column, want ...int64) {
	t.Helper()
	if c.Len() != len(want) {
		t.Fatalf("len = %d, want %d", c.Len(), len(want))
	}
	for i, w := range want {
		if w == -1 {
			if c.Valid(i) {
				t.Fatalf("slot %d = %d, want ε", i, c.Int(i))
			}
			continue
		}
		if !c.Valid(i) {
			t.Fatalf("slot %d is ε, want %d", i, w)
		}
		if c.Int(i) != w {
			t.Fatalf("slot %d = %d, want %d", i, c.Int(i), w)
		}
	}
}

// TestFigure3HierarchicalAggregation reproduces the paper's Figure 3: a
// multithreaded hierarchical summation with partition size 2.
func TestFigure3HierarchicalAggregation(t *testing.T) {
	st := MemStorage{"input": intVec("val", 1, 2, 3, 4, 5, 6, 7, 8)}
	b := core.NewBuilder()
	input := b.Load("input")
	ids := b.Range(input)
	partitionSize := b.Constant(2)
	partitionIDs := b.Project("partition", b.Divide(ids, partitionSize), "")
	positions := b.Range(input) // identity positions: input is in partition order
	inputWPart := b.Zip("val", input, "val", "partition", partitionIDs, "partition")
	posVec := b.Upsert(inputWPart, "pos", positions, "")
	partInput := b.Scatter(inputWPart, input, "", posVec, "pos")
	pSum := b.FoldSum(partInput, "partition", "val")
	totalSum := b.GlobalSum(pSum, "")

	res := mustRun(t, b, st)
	wantSparse(t, res.Value(pSum).SingleCol(), 3, -1, 7, -1, 11, -1, 15, -1)
	wantSparse(t, res.Value(totalSum).SingleCol(), 36, -1, -1, -1, -1, -1, -1, -1)
}

// TestFigure4SIMDVariant applies the paper's Figure 4 diff: partitioning by
// Modulo (lane ids) instead of Divide (block ids), with a round-robin
// scatter.
func TestFigure4SIMDVariant(t *testing.T) {
	st := MemStorage{"input": intVec("val", 1, 2, 3, 4, 5, 6, 7, 8)}
	b := core.NewBuilder()
	input := b.Load("input")
	ids := b.Range(input)
	laneCount := b.Constant(2)
	partitionIDs := b.Project("partition", b.Modulo(ids, laneCount), "")
	inputWPart := b.Zip("val", input, "val", "partition", partitionIDs, "partition")
	positions := b.Partition("pos", partitionIDs, "partition", b.RangeN(0, 2, 1), "")
	posVec := b.Upsert(inputWPart, "pos", positions, "pos")
	partInput := b.Scatter(inputWPart, input, "", posVec, "pos")
	pSum := b.FoldSum(partInput, "partition", "val")
	totalSum := b.GlobalSum(pSum, "")

	res := mustRun(t, b, st)
	// Lane 0 holds 1+3+5+7 = 16, lane 1 holds 2+4+6+8 = 20.
	wantSparse(t, res.Value(pSum).SingleCol(), 16, -1, -1, -1, 20, -1, -1, -1)
	wantSparse(t, res.Value(totalSum).SingleCol(), 36, -1, -1, -1, -1, -1, -1, -1)
}

// TestFigure7ControlledFold reproduces the paper's Figure 7 exactly:
// fold = [1 1 1 1 0 0 0 0], value = [2 0 4 1 3 1 5 0] → sum = [7 ε ε ε 9 ε ε ε].
func TestFigure7ControlledFold(t *testing.T) {
	v := vector.New(8).
		Set("fold", vector.NewInt([]int64{1, 1, 1, 1, 0, 0, 0, 0})).
		Set("value", vector.NewInt([]int64{2, 0, 4, 1, 3, 1, 5, 0}))
	st := MemStorage{"v": v}
	b := core.NewBuilder()
	in := b.Load("v")
	sum := b.FoldSum(in, "fold", "value")
	res := mustRun(t, b, st)
	wantSparse(t, res.Value(sum).SingleCol(), 7, -1, -1, -1, 9, -1, -1, -1)
}

func TestFoldSelectAlignsToRuns(t *testing.T) {
	v := vector.New(8).
		Set("fold", vector.NewInt([]int64{0, 0, 0, 0, 1, 1, 1, 1})).
		Set("s", vector.NewInt([]int64{1, 0, 1, 1, 0, 0, 1, 0}))
	b := core.NewBuilder()
	in := b.Load("v")
	sel := b.FoldSelect(in, "fold", "s")
	res := mustRun(t, b, MemStorage{"v": v})
	wantSparse(t, res.Value(sel).SingleCol(), 0, 2, 3, -1, 6, -1, -1, -1)
}

func TestFoldMinMax(t *testing.T) {
	v := vector.New(6).
		Set("fold", vector.NewInt([]int64{0, 0, 0, 1, 1, 1})).
		Set("x", vector.NewInt([]int64{5, -2, 9, 4, 4, 1}))
	b := core.NewBuilder()
	in := b.Load("v")
	mn := b.FoldMin(in, "fold", "x")
	mx := b.FoldMax(in, "fold", "x")
	res := mustRun(t, b, MemStorage{"v": v})
	wantSparse(t, res.Value(mn).SingleCol(), -2, -1, -1, 1, -1, -1)
	wantSparse(t, res.Value(mx).SingleCol(), 9, -1, -1, 4, -1, -1)
}

func TestFoldScan(t *testing.T) {
	v := vector.New(6).
		Set("fold", vector.NewInt([]int64{0, 0, 0, 1, 1, 1})).
		Set("x", vector.NewInt([]int64{1, 2, 3, 10, 10, 10}))
	b := core.NewBuilder()
	in := b.Load("v")
	scan := b.FoldScan(in, "fold", "x")
	res := mustRun(t, b, MemStorage{"v": v})
	wantInts(t, res.Value(scan).SingleCol(), 1, 3, 6, 10, 20, 30)
}

func TestFoldSkipsEmptySlots(t *testing.T) {
	col := vector.NewEmptyInt(4)
	col.SetInt(0, 5)
	col.SetInt(2, 7)
	v := vector.New(4).Set("x", col)
	b := core.NewBuilder()
	in := b.Load("v")
	sum := b.GlobalSum(in, "x")
	res := mustRun(t, b, MemStorage{"v": v})
	wantSparse(t, res.Value(sum).SingleCol(), 12, -1, -1, -1)
}

func TestFoldEmptyRunYieldsEpsilon(t *testing.T) {
	col := vector.NewEmptyInt(4)
	col.SetInt(2, 7)
	v := vector.New(4).
		Set("fold", vector.NewInt([]int64{0, 0, 1, 1})).
		Set("x", col)
	b := core.NewBuilder()
	in := b.Load("v")
	sum := b.FoldSum(in, "fold", "x")
	res := mustRun(t, b, MemStorage{"v": v})
	wantSparse(t, res.Value(sum).SingleCol(), -1, -1, 7, -1)
}

func TestGatherOutOfBoundsIsEmpty(t *testing.T) {
	b := core.NewBuilder()
	data := b.Load("data")
	pos := b.Load("pos")
	g := b.Gather(data, pos, "")
	st := MemStorage{
		"data": intVec("val", 10, 20, 30),
		"pos":  intVec("p", 2, 5, 0, -1),
	}
	res := mustRun(t, b, st)
	wantSparse(t, res.Value(g).Col("val"), 30, -1, 10, -1)
}

func TestScatterConflictLastWins(t *testing.T) {
	b := core.NewBuilder()
	data := b.Load("data")
	pos := b.Load("pos")
	sc := b.Scatter(data, data, "", pos, "p")
	st := MemStorage{
		"data": intVec("val", 1, 2, 3),
		"pos":  intVec("p", 0, 0, 2),
	}
	res := mustRun(t, b, st)
	wantSparse(t, res.Value(sc).Col("val"), 2, -1, 3)
}

// TestVirtualScatterExample reproduces the paper's Figure 11: a grouped
// count via Partition → Scatter → FoldSum over the partition attribute.
func TestVirtualScatterExample(t *testing.T) {
	// Groups a,b,c,d encoded as 0,1,2,3; same multiset as Figure 11.
	groups := []int64{0, 1, 0, 2, 2, 1, 2, 0, 3, 1}
	vals := []int64{2, 0, 1, 4, 6, 2, 0, 9, 2, 7}
	st := MemStorage{"t": vector.New(10).
		Set("g", vector.NewInt(groups)).
		Set("v", vector.NewInt(vals))}
	b := core.NewBuilder()
	in := b.Load("t")
	pivots := b.RangeN(0, 4, 1)
	pos := b.Partition("pos", in, "g", pivots, "")
	withPos := b.Upsert(in, "pos", pos, "pos")
	scattered := b.Scatter(in, in, "", withPos, "pos")
	sums := b.FoldSum(scattered, "g", "v")
	res := mustRun(t, b, st)
	// Partition counts: a=3 (2+1+9=12), b=3 (0+2+7=9), c=3 (4+6+0=10), d=1 (2).
	wantSparse(t, res.Value(sums).SingleCol(), 12, -1, -1, 9, -1, -1, 10, -1, -1, 2)
}

func TestArithBroadcastAndTypes(t *testing.T) {
	b := core.NewBuilder()
	x := b.Load("x")
	two := b.Constant(2)
	div := b.Divide(x, two)
	mod := b.Modulo(x, two)
	gt := b.Greater(x, two)
	res := mustRun(t, b, MemStorage{"x": intVec("v", 0, 1, 2, 3, 4)})
	wantInts(t, res.Value(div).SingleCol(), 0, 0, 1, 1, 2)
	wantInts(t, res.Value(mod).SingleCol(), 0, 1, 0, 1, 0)
	wantInts(t, res.Value(gt).SingleCol(), 0, 0, 0, 1, 1)
}

func TestArithFloat(t *testing.T) {
	b := core.NewBuilder()
	x := b.Load("x")
	c := b.ConstantF(1.5)
	sum := b.Add(x, c)
	gt := b.Greater(x, c)
	v := vector.New(3).Set("v", vector.NewFloat([]float64{1, 1.5, 2}))
	res := mustRun(t, b, MemStorage{"x": v})
	got := res.Value(sum).SingleCol()
	for i, want := range []float64{2.5, 3, 3.5} {
		if got.Float(i) != want {
			t.Errorf("sum[%d] = %g, want %g", i, got.Float(i), want)
		}
	}
	wantInts(t, res.Value(gt).SingleCol(), 0, 0, 1)
}

func TestArithMinLength(t *testing.T) {
	b := core.NewBuilder()
	x := b.Load("x")
	y := b.Load("y")
	sum := b.Add(x, y)
	st := MemStorage{"x": intVec("v", 1, 2, 3, 4), "y": intVec("w", 10, 20)}
	res := mustRun(t, b, st)
	wantInts(t, res.Value(sum).SingleCol(), 11, 22)
}

func TestZipTruncatesToSmaller(t *testing.T) {
	b := core.NewBuilder()
	x := b.Load("x")
	y := b.Load("y")
	z := b.Zip("a", x, "", "b", y, "")
	st := MemStorage{"x": intVec("v", 1, 2, 3), "y": intVec("w", 9, 8)}
	res := mustRun(t, b, st)
	v := res.Value(z)
	if v.Len() != 2 {
		t.Fatalf("zip len = %d, want 2", v.Len())
	}
	wantInts(t, v.Col("a"), 1, 2)
	wantInts(t, v.Col("b"), 9, 8)
}

func TestZipNestedSubtree(t *testing.T) {
	v := vector.New(2).
		Set("in.x", vector.NewInt([]int64{1, 2})).
		Set("in.y", vector.NewInt([]int64{3, 4}))
	b := core.NewBuilder()
	a := b.Load("t")
	z := b.Zip("l", a, "in", "r", a, "in.x")
	res := mustRun(t, b, MemStorage{"t": v})
	out := res.Value(z)
	wantInts(t, out.Col("l.x"), 1, 2)
	wantInts(t, out.Col("l.y"), 3, 4)
	wantInts(t, out.Col("r"), 1, 2)
}

func TestCross(t *testing.T) {
	b := core.NewBuilder()
	x := b.Load("x")
	y := b.Load("y")
	c := b.Cross("i", x, "j", y)
	st := MemStorage{"x": intVec("v", 0, 0, 0), "y": intVec("w", 0, 0)}
	res := mustRun(t, b, st)
	wantInts(t, res.Value(c).Col("i"), 0, 0, 1, 1, 2, 2)
	wantInts(t, res.Value(c).Col("j"), 0, 1, 0, 1, 0, 1)
}

func TestPartitionStable(t *testing.T) {
	b := core.NewBuilder()
	in := b.Load("t")
	pivots := b.RangeN(0, 3, 1)
	pos := b.Partition("pos", in, "g", pivots, "")
	st := MemStorage{"t": intVec("g", 2, 0, 1, 0, 2, 1)}
	res := mustRun(t, b, st)
	// Stable counting sort: zeros at 0..1, ones at 2..3, twos at 4..5.
	wantInts(t, res.Value(pos).SingleCol(), 4, 0, 2, 1, 5, 3)
}

func TestPersistRoundTrip(t *testing.T) {
	st := MemStorage{"in": intVec("v", 1, 2, 3)}
	b := core.NewBuilder()
	x := b.Load("in")
	doubled := b.Multiply(x, b.Constant(2))
	b.Persist("out", doubled)
	mustRun(t, b, st)
	out, err := st.LoadVector("out")
	if err != nil {
		t.Fatal(err)
	}
	wantInts(t, out.SingleCol(), 2, 4, 6)
}

func TestFoldCountMacro(t *testing.T) {
	b := core.NewBuilder()
	in := b.Load("t")
	cnt := b.FoldCount(in, "g")
	st := MemStorage{"t": intVec("g", 0, 0, 0, 1, 1, 2)}
	res := mustRun(t, b, st)
	wantSparse(t, res.Value(cnt).SingleCol(), 3, -1, -1, 2, -1, 1)
}

func TestErrorOnMissingAttribute(t *testing.T) {
	b := core.NewBuilder()
	in := b.Load("t")
	b.FoldSum(in, "nope", "v")
	_, err := Run(context.Background(), b.Program(), MemStorage{"t": intVec("v", 1)}, Opts{})
	if err == nil {
		t.Fatal("expected error for missing fold attribute")
	}
}

func TestErrorOnDivisionByZero(t *testing.T) {
	b := core.NewBuilder()
	in := b.Load("t")
	b.Divide(in, b.Constant(0))
	_, err := Run(context.Background(), b.Program(), MemStorage{"t": intVec("v", 1)}, Opts{})
	if err == nil {
		t.Fatal("expected division-by-zero error")
	}
}

func TestErrorOnUnknownTable(t *testing.T) {
	b := core.NewBuilder()
	b.Load("missing")
	_, err := Run(context.Background(), b.Program(), MemStorage{}, Opts{})
	if err == nil {
		t.Fatal("expected error for unknown table")
	}
}
