package interp

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"voodoo/internal/core"
)

// TestFoldSumPartitionInvariant: for any data and any run length, the sum
// of the per-run folds equals the global fold — controlled folding
// decomposes aggregation (paper §2.2).
func TestFoldSumPartitionInvariant(t *testing.T) {
	f := func(raw []int16, runLen8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		var want int64
		for i, v := range raw {
			vals[i] = int64(v)
			want += int64(v)
		}
		runLen := int64(runLen8%32) + 1
		b := core.NewBuilder()
		in := b.Load("t")
		ids := b.Range(in)
		fold := b.Project("fold", b.Divide(ids, b.Constant(runLen)), "")
		withFold := b.Zip("v", in, "", "fold", fold, "fold")
		p := b.FoldSum(withFold, "fold", "v")
		total := b.GlobalSum(p, "")
		res, err := Run(context.Background(), b.Program(), MemStorage{"t": intVec("v", vals...)}, Opts{})
		if err != nil {
			t.Logf("run error: %v", err)
			return false
		}
		c := res.Value(total).SingleCol()
		return c.Valid(0) && c.Int(0) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFoldMinMaxInvariant: per-run min/max folds bound every run element.
func TestFoldMinMaxInvariant(t *testing.T) {
	f := func(raw []int16, runLen8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		runLen := int(runLen8%16) + 1
		b := core.NewBuilder()
		in := b.Load("t")
		ids := b.Range(in)
		fold := b.Project("fold", b.Divide(ids, b.Constant(int64(runLen))), "")
		withFold := b.Zip("v", in, "", "fold", fold, "fold")
		mn := b.FoldMin(withFold, "fold", "v")
		mx := b.FoldMax(withFold, "fold", "v")
		res, err := Run(context.Background(), b.Program(), MemStorage{"t": intVec("v", vals...)}, Opts{})
		if err != nil {
			return false
		}
		mnc := res.Value(mn).SingleCol()
		mxc := res.Value(mx).SingleCol()
		for start := 0; start < len(vals); start += runLen {
			end := min(start+runLen, len(vals))
			lo, hi := vals[start], vals[start]
			for _, v := range vals[start:end] {
				lo, hi = min(lo, v), max(hi, v)
			}
			if !mnc.Valid(start) || mnc.Int(start) != lo {
				return false
			}
			if !mxc.Valid(start) || mxc.Int(start) != hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestScatterGatherInverse: scattering by a permutation and gathering back
// through the same permutation is the identity.
func TestScatterGatherInverse(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(100)
		vals := make([]int64, n)
		perm := r.Perm(n)
		pos := make([]int64, n)
		for i := range vals {
			vals[i] = r.Int63n(1000)
			pos[i] = int64(perm[i])
		}
		b := core.NewBuilder()
		data := b.Load("data")
		posV := b.Load("pos")
		scattered := b.Scatter(data, data, "", posV, "p")
		back := b.Gather(scattered, posV, "p")
		res, err := Run(context.Background(), b.Program(), MemStorage{
			"data": intVec("v", vals...),
			"pos":  intVec("p", pos...),
		}, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Value(back).Col("v")
		for i := range vals {
			if !got.Valid(i) || got.Int(i) != vals[i] {
				t.Fatalf("trial %d: slot %d = %v, want %d", trial, i, got, vals[i])
			}
		}
	}
}

// TestFoldSelectCountsMatchPredicate: the number of emitted positions per
// run equals the number of qualifying elements, and every emitted position
// qualifies.
func TestFoldSelectCountsMatchPredicate(t *testing.T) {
	f := func(raw []uint8, runLen8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v % 4) // mixed selectivity
		}
		runLen := int64(runLen8%16) + 1
		b := core.NewBuilder()
		in := b.Load("t")
		pred := b.Greater(in, b.Constant(1))
		ids := b.Range(in)
		fold := b.Project("fold", b.Divide(ids, b.Constant(runLen)), "")
		withFold := b.Zip("p", pred, "", "fold", fold, "fold")
		sel := b.FoldSelect(withFold, "fold", "p")
		res, err := Run(context.Background(), b.Program(), MemStorage{"t": intVec("v", vals...)}, Opts{})
		if err != nil {
			return false
		}
		c := res.Value(sel).SingleCol()
		emitted := 0
		for i := 0; i < c.Len(); i++ {
			if c.Valid(i) {
				emitted++
				if vals[c.Int(i)] <= 1 {
					return false // a non-qualifying position was emitted
				}
			}
		}
		want := 0
		for _, v := range vals {
			if v > 1 {
				want++
			}
		}
		return emitted == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBitShiftAndLogical covers the remaining arithmetic operators.
func TestBitShiftAndLogical(t *testing.T) {
	b := core.NewBuilder()
	in := b.Load("t")
	shl := b.BitShift(in, b.Constant(2))
	shr := b.BitShift(in, b.Constant(-1))
	band := b.And(in, b.Constant(1))
	res, err := Run(context.Background(), b.Program(), MemStorage{"t": intVec("v", 0, 1, 2, 3)}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	wantInts(t, res.Value(shl).SingleCol(), 0, 4, 8, 12)
	wantInts(t, res.Value(shr).SingleCol(), 0, 0, 1, 1)
	wantInts(t, res.Value(band).SingleCol(), 0, 1, 1, 1)
}

// TestUpsertReplacesExisting covers the replace branch of Upsert.
func TestUpsertReplacesExisting(t *testing.T) {
	b := core.NewBuilder()
	in := b.Load("t")
	doubled := b.Multiply(b.Project("v", in, "v"), b.Constant(2))
	replaced := b.Upsert(in, "v", doubled, "")
	res, err := Run(context.Background(), b.Program(), MemStorage{"t": intVec("v", 1, 2, 3)}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	wantInts(t, res.Value(replaced).Col("v"), 2, 4, 6)
	if len(res.Value(replaced).Names()) != 1 {
		t.Fatal("replace should not add attributes")
	}
}

// TestModuloOfNegativeIsNonNegative pins the mathematical-mod contract.
func TestModuloOfNegativeIsNonNegative(t *testing.T) {
	b := core.NewBuilder()
	in := b.Load("t")
	m := b.Modulo(in, b.Constant(5))
	res, err := Run(context.Background(), b.Program(), MemStorage{"t": intVec("v", -7, -1, 0, 12)}, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	wantInts(t, res.Value(m).SingleCol(), 3, 4, 0, 2)
}
