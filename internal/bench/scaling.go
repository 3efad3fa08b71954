package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"voodoo/internal/exec"
	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

// scalingWarnAt is the minimum 1-worker / GOMAXPROCS-workers wall-clock
// speedup the scaling check expects before warning. Deliberately modest:
// the check guards against the executor *losing* its parallelism (a
// serialized scheduler, a global lock on the hot path), not against
// imperfect scaling on a loaded CI runner.
const scalingWarnAt = 1.3

// scalingKernel builds one wide CPU-bound fragment: n work items of a
// few dependent integer ops each, heavy enough that wall time is compute,
// not scheduling.
func scalingKernel(n int) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
	r0, r1 := kernel.FirstFree, kernel.FirstFree+1
	body := []kernel.Instr{
		{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: in, Seq: true},
	}
	// A short dependent chain per item so the fragment is ALU-bound.
	for i := 0; i < 8; i++ {
		body = append(body,
			kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: r1, A: r0, B: r0},
			kernel.Instr{Op: kernel.IBin, BOp: kernel.BMul, Dst: r0, A: r1, B: r1},
		)
	}
	body = append(body, kernel.Instr{Op: kernel.IStore, A: kernel.RegIdx, B: r0, Buf: out, Seq: true})
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "scaling", Extent: n, Intent: 1, N: n,
		Loops: []kernel.Loop{{Body: body}},
	})
	return k
}

// ScalingCheck measures the executor's real wall-clock scaling: one
// CPU-bound fragment run with 1 worker and with GOMAXPROCS workers
// through the morsel scheduler. The measured times land in rep.Medians
// under "scaling/" keys (skipped by CompareCI — wall clock is not
// deterministic like the simulated medians) and the returned warnings are
// advisory, exactly like CompareCIAllocs. On a single-CPU machine there
// is nothing to scale and the check is skipped.
func ScalingCheck(rep *CIReport) []string {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		return nil
	}
	const n = 1 << 21
	k := scalingKernel(n)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	measure := func(workers int) (float64, error) {
		best := math.Inf(1)
		for rep := 0; rep < 3; rep++ {
			env := exec.NewEnv(k)
			if err := env.Bind(k, "in", &exec.Buffer{Kind: vector.Int, I: vals}); err != nil {
				return 0, err
			}
			start := time.Now()
			if err := exec.Run(context.Background(), k, env, exec.Par{Workers: workers}, nil); err != nil {
				return 0, err
			}
			if d := time.Since(start).Seconds(); d < best {
				best = d
			}
		}
		return best, nil
	}
	t1, err := measure(1)
	if err != nil {
		return []string{fmt.Sprintf("scaling check failed: %v", err)}
	}
	tn, err := measure(procs)
	if err != nil {
		return []string{fmt.Sprintf("scaling check failed: %v", err)}
	}
	rep.Medians["scaling/workers_1"] = t1
	rep.Medians[fmt.Sprintf("scaling/workers_%d", procs)] = tn
	speedup := t1 / tn
	rep.Medians["scaling/speedup"] = speedup
	if speedup < scalingWarnAt {
		return []string{fmt.Sprintf(
			"parallel scaling %.2fx (1 worker %.4fs vs %d workers %.4fs), want >= %.1fx — the executor may have lost its parallelism",
			speedup, t1, procs, tn, scalingWarnAt)}
	}
	return nil
}
