package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"voodoo/internal/exec"
	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

// specializeWarnAt is the minimum interpreter / specialized wall-clock
// speedup the dispatch check expects on the canonical selection fragment
// before warning. The specialization layer exists to eliminate per-element
// dispatch, so anything under 1.5x means the batch compiler regressed into
// re-dispatching per element.
const specializeWarnAt = 1.5

// specializeSelectKernel builds the canonical branching selection: load →
// compare-against-constant → guard → store, sequential, one iteration per
// work item — batch-eligible by construction.
func specializeSelectKernel(n int) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
	rc, r0, r1 := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "spec_select", Extent: n, Intent: 1, N: n,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.IConstI, Dst: rc, Imm: int64(n / 2)},
			{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IBin, BOp: kernel.BGt, Dst: r1, A: r0, B: rc},
			{Op: kernel.IGuard, A: r1},
			{Op: kernel.IStore, A: kernel.RegIdx, B: r0, Buf: out, Seq: true},
		}}},
	})
	return k
}

// specializeMeasure runs the kernel single-worker with specialization on or
// off and returns the best-of-3 wall time in seconds.
func specializeMeasure(k *kernel.Kernel, vals []int64, noSpecialize bool) (float64, error) {
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		env := exec.NewEnv(k)
		if err := env.Bind(k, "in", &exec.Buffer{Kind: vector.Int, I: vals}); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := exec.Run(context.Background(), k, env, exec.Par{Workers: 1, NoSpecialize: noSpecialize}, nil); err != nil {
			return 0, err
		}
		if d := time.Since(start).Seconds(); d < best {
			best = d
		}
	}
	return best, nil
}

// SpecializeCheck measures the dispatch overhead the specialization layer
// removes: the canonical selection fragment runs single-worker through the
// per-element interpreter and through the batch primitives. The measured
// times land in rep.Medians under "specialize/" keys (skipped by CompareCI
// — real wall clock, not the deterministic simulated medians) and the
// returned warnings are advisory, exactly like ScalingCheck: a batch
// selection that is not at least 1.5x faster than the interpreter means
// the batch compiler lost its batching.
func SpecializeCheck(rep *CIReport) []string {
	const n = 1 << 21
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	k := specializeSelectKernel(n)
	interp, err := specializeMeasure(k, vals, true)
	if err != nil {
		return []string{fmt.Sprintf("specialize check failed: %v", err)}
	}
	batch, err := specializeMeasure(k, vals, false)
	if err != nil {
		return []string{fmt.Sprintf("specialize check failed: %v", err)}
	}
	rep.Medians["specialize/select_interp"] = interp
	rep.Medians["specialize/select_batch"] = batch
	if interp/batch < specializeWarnAt {
		return []string{fmt.Sprintf(
			"batch specialization %.2fx on select (interp %.4fs vs batch %.4fs), want >= %.1fx — the batch compiler may be re-dispatching per element",
			interp/batch, interp, batch, specializeWarnAt)}
	}
	return nil
}
