package main

import (
	"context"
	"time"

	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/interp"
	"voodoo/internal/vector"
)

const (
	// kernelElems is the length of the synthetic columns: 32 MiB of
	// float64, several times the last-level cache. The smoke test passes
	// run() a smaller one.
	kernelElems = 1 << 22
	kernelReps  = 3
)

// kernelProbes pushes synthetic n-element columns through compile.Compile
// and Plan.RunWith in the three shapes TPC-H fragments are built from — a
// selection, a grouped fold, a gather — and returns the input bytes each
// consumes per second of run time (median of kernelReps). These are the
// microbenchmarks a kernel change moves first; the README records that
// they count only together with the tpch-direct median.
func kernelProbes(n int) (selectMBs, foldMBs, gatherMBs float64, err error) {
	vals := make([]float64, n)
	pos := make([]int64, n)
	for i := range vals {
		vals[i] = float64(i%1000) / 1000
		// An odd multiplier modulo a power of two permutes the positions
		// with no locality.
		pos[i] = int64((uint64(i)*2654435761 + 12345) % uint64(n))
	}
	st := interp.MemStorage{
		"input": vector.New(n).Set("val", vector.NewFloat(vals)),
		"pos":   vector.New(n).Set("val", vector.NewInt(pos)),
	}
	runs := func(b *core.Builder, v core.Ref) core.Ref {
		return b.Project("fold", b.Divide(b.Range(v), b.Constant(int64(max(n/64, 1)))), "")
	}

	sel := core.NewBuilder()
	{
		in := sel.Load("input")
		pred := sel.Less(in, "", sel.ConstantF(0.5), "")
		pf := sel.Zip("p", pred, "", "fold", runs(sel, in), "fold")
		sel.FoldSum(sel.Gather(in, sel.FoldSelect(pf, "fold", "p"), ""), "", "")
	}
	fold := core.NewBuilder()
	{
		in := fold.Load("input")
		vf := fold.Zip("v", in, "", "fold", runs(fold, in), "fold")
		fold.FoldSum(vf, "fold", "v")
	}
	gather := core.NewBuilder()
	{
		in := gather.Load("input")
		gather.FoldSum(gather.Gather(in, gather.Load("pos"), ""), "", "")
	}

	measure := func(b *core.Builder, bytes int) (float64, error) {
		plan, err := compile.Compile(b.Program(), st, compile.Options{})
		if err != nil {
			return 0, err
		}
		var mbs []float64
		for i := 0; i < kernelReps; i++ {
			t0 := time.Now()
			if _, err := plan.RunWith(context.Background(), compile.RunOpts{}); err != nil {
				return 0, err
			}
			mbs = append(mbs, float64(bytes)/1e6/time.Since(t0).Seconds())
		}
		return median(mbs), nil
	}
	if selectMBs, err = measure(sel, n*8); err != nil {
		return
	}
	if foldMBs, err = measure(fold, n*8); err != nil {
		return
	}
	gatherMBs, err = measure(gather, n*16)
	return
}
