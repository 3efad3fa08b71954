// Selection: the paper's Figure 1 / Figure 15 study as a runnable example.
//
// The same Voodoo selection program compiles into three implementations —
// branching, branch-free (predicated), and vectorized — by flipping the
// Predication option and the control vector's run length. The example runs
// all three over a selectivity sweep, verifies they agree, and prices them
// on the CPU and GPU models to show the portability tradeoff the paper
// opens with: predication helps mid-selectivity CPUs and does nothing for
// GPUs.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/device"
	"voodoo/internal/interp"
	"voodoo/internal/vector"
)

// selectSum builds: select sum(v2) where v1 < threshold, with the given
// control-vector run length (the tuning knob).
func selectSum(threshold float64, runLen int) *core.Program {
	b := core.NewBuilder()
	in := b.Load("facts")
	pred := b.Less(b.Project("v", in, "v1"), "", b.ConstantF(threshold), "")
	ids := b.Range(in)
	fold := b.Project("fold", b.Divide(ids, b.Constant(int64(runLen))), "")
	pf := b.Zip("p", pred, "", "fold", fold, "fold")
	sel := b.FoldSelect(pf, "fold", "p")
	g := b.Gather(in, sel, "")
	b.FoldSum(g, "", "v2")
	return b.Program()
}

func main() {
	n := 1 << 18
	r := rand.New(rand.NewSource(7))
	v1 := make([]float64, n)
	v2 := make([]float64, n)
	for i := range v1 {
		v1[i] = r.Float64()
		v2[i] = r.Float64()
	}
	st := interp.MemStorage{"facts": vector.New(n).
		Set("v1", vector.NewFloat(v1)).
		Set("v2", vector.NewFloat(v2))}

	cpu := device.CPU(1)
	gpu := device.GPU()

	fmt.Printf("%-12s %-14s %-14s %-14s %-14s\n",
		"selectivity", "branch/cpu", "predic/cpu", "branch/gpu", "predic/gpu")
	for _, sel := range []float64{0.01, 0.1, 0.5, 0.9} {
		var times []float64
		var sums []float64
		for _, cfg := range []struct {
			pred   bool
			model  *device.Model
			runLen int
		}{
			{false, cpu, n},
			{true, cpu, 4096}, // predication + cache-sized chunks (vectorized)
			{false, gpu, 256},
			{true, gpu, 256},
		} {
			prog := selectSum(sel, cfg.runLen)
			plan, err := compile.Compile(prog, st, compile.Options{Predication: cfg.pred})
			if err != nil {
				log.Fatal(err)
			}
			res, err := plan.RunWith(context.Background(), compile.RunOpts{CollectStats: true})
			if err != nil {
				log.Fatal(err)
			}
			times = append(times, cfg.model.Time(&res.Stats))
			sums = append(sums, rootSum(prog, res))
		}
		for _, s := range sums[1:] {
			// Summation order differs between run lengths; allow float
			// round-off.
			if diff := s - sums[0]; diff > 1e-6 || diff < -1e-6 {
				log.Fatalf("implementations disagree: %v", sums)
			}
		}
		fmt.Printf("%-12.2f %-14.6f %-14.6f %-14.6f %-14.6f\n",
			sel, times[0], times[1], times[2], times[3])
	}
	fmt.Println("\nAll four implementations returned identical sums; only their cost differs.")
	fmt.Println("Vectorized predication wins mid-selectivity on the CPU (no mispredictions,")
	fmt.Println("cache-resident position chunks); on the GPU there is nothing to win —")
	fmt.Println("SIMT never speculates.")
}

// rootSum extracts the single root value of the plan result.
func rootSum(prog *core.Program, res *compile.Result) float64 {
	root := core.Ref(len(prog.Stmts) - 1)
	return res.Values[root].SingleCol().Float(0)
}
