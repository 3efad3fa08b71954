// Layout: the paper's Figure 14 "just-in-time layout transformation" as a
// runnable example.
//
// Resolving positions into two columns of the same table can be done with
// one loop, two loops, or — after transforming the table from columnar to
// row-wise layout on the fly — one loop with colocated fields. Which wins
// depends on the lookup pattern and the target size relative to the cache.
// All three are a handful of algebra lines apart; the example prints the
// generated fragments so the difference is visible.
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

const (
	lookups  = 1 << 17
	tableLen = 1 << 15
)

// singleLoop resolves both columns in one pass.
func singleLoop() *core.Program {
	b := core.NewBuilder()
	pos := b.Load("pos")
	t1 := b.Load("c1")
	t2 := b.Load("c2")
	g := b.Gather(b.Zip("c1", t1, "", "c2", t2, ""), pos, "")
	sum := b.Arith(core.OpAdd, "s", g, "c1", g, "c2")
	b.FoldSum(sum, "", "")
	return b.Program()
}

// separateLoops resolves one column per pass (half the working set each).
func separateLoops() *core.Program {
	b := core.NewBuilder()
	pos := b.Load("pos")
	t1 := b.Load("c1")
	t2 := b.Load("c2")
	s1 := b.FoldSum(b.Gather(t1, pos, ""), "", "")
	s2 := b.FoldSum(b.Gather(t2, pos, ""), "", "")
	b.Add(s1, s2)
	return b.Program()
}

// layoutTransform interleaves the columns row-wise first; the two fields of
// a row then share a cache line.
func layoutTransform() *core.Program {
	b := core.NewBuilder()
	pos := b.Load("pos")
	t1 := b.Load("c1")
	t2 := b.Load("c2")
	ids2 := b.RangeN(0, 2*tableLen, 1)
	half := b.Project("h", b.Divide(ids2, b.Constant(2)), "")
	odd := b.Modulo(ids2, b.Constant(2))
	g1 := b.Gather(t1, half, "h")
	g2 := b.Gather(t2, half, "h")
	even := b.Arith(core.OpMultiply, "v", g1, "", b.Subtract(b.Constant(1), odd), "")
	oddV := b.Arith(core.OpMultiply, "v", g2, "", odd, "")
	row := b.Materialize(b.Add(even, oddV), ids2, "")
	p2 := b.Multiply(b.Project("p", pos, ""), b.Constant(2))
	pe := b.Upsert(pos, "pe", p2, "")
	po := b.Upsert(pos, "po", b.Add(p2, b.Constant(1)), "")
	v1 := b.Gather(row, pe, "pe")
	v2 := b.Gather(row, po, "po")
	b.FoldSum(b.Add(v1, v2), "", "")
	return b.Program()
}

func main() {
	r := rand.New(rand.NewSource(5))
	pos := make([]int64, lookups)
	for i := range pos {
		pos[i] = r.Int63n(tableLen)
	}
	c1 := make([]float64, tableLen)
	c2 := make([]float64, tableLen)
	for i := range c1 {
		c1[i] = float64(i)
		c2[i] = float64(i) / 2
	}
	st := interp.MemStorage{
		"pos": vector.New(lookups).Set("p", vector.NewInt(pos)),
		"c1":  vector.New(tableLen).Set("v", vector.NewFloat(c1)),
		"c2":  vector.New(tableLen).Set("v", vector.NewFloat(c2)),
	}

	// Scale the cache model so the table is DRAM-resident (as the paper's
	// 128MB case is against a real 8MB L3).
	cpu := device.CPU(1)
	cpu.Tiers[2].Size = int64(tableLen) * 8

	programs := map[string]*core.Program{
		"Single Loop":      singleLoop(),
		"Separate Loops":   separateLoops(),
		"Layout Transform": layoutTransform(),
	}
	var reference float64
	haveRef := false
	for _, name := range []string{"Single Loop", "Separate Loops", "Layout Transform"} {
		prog := programs[name]
		plan, err := compile.Compile(prog, st, compile.Options{})
		if err != nil {
			log.Fatal(err)
		}
		res, err := plan.RunWith(context.Background(), compile.RunOpts{CollectStats: true})
		if err != nil {
			log.Fatal(err)
		}
		root := core.Ref(len(prog.Stmts) - 1)
		sum := res.Values[root].SingleCol().Float(0)
		if !haveRef {
			reference, haveRef = sum, true
		} else if d := sum - reference; d > 1e-6 || d < -1e-6 {
			log.Fatalf("%s disagrees: %g vs %g", name, sum, reference)
		}
		fmt.Printf("%-18s sum=%.1f  simulated CPU time=%.6fs  fragments=%d\n",
			name, sum, cpu.Time(&res.Stats), len(plan.Kernel().Frags))
	}
	fmt.Println("\nWith a DRAM-resident target and random positions, the transform pays for")
	fmt.Println("itself: two random misses per lookup become one miss plus one colocated hit.")
}
