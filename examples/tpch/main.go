// TPC-H: the macrobenchmark of the paper's evaluation as a runnable
// example. Generates a small TPC-H catalog, runs a query through every
// engine of the reproduction — the Voodoo compiling backend, the reference
// interpreter, the Ocelot-style bulk engine, and the HyPer-style pipelined
// baseline — verifies that all four agree, and prices each on the device
// models.
package main

import (
	"fmt"
	"log"
	"math"

	"voodoo/internal/baseline/hyper"
	"voodoo/internal/device"
	"voodoo/internal/exec"
	"voodoo/internal/rel"
	"voodoo/internal/tpch"
)

func main() {
	cat := tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
	fmt.Printf("catalog: %d lineitems, %d orders\n\n",
		cat.Table("lineitem").N, cat.Table("orders").N)

	cpu := device.CPU(8)
	gpu := device.GPU()

	var q1 *rel.Result
	for _, num := range []int{1, 5, 6, 19} {
		q, err := tpch.Plan(num, cat)
		if err != nil {
			log.Fatal(err)
		}
		run := func(e rel.Runner) (*rel.Result, *exec.Stats) {
			res, stats, err := e.Run(q)
			if err != nil {
				log.Fatal(err)
			}
			return res, stats
		}
		vres, vstats := run(&rel.Engine{Cat: cat, Backend: rel.Compiled, CollectStats: true})
		ires, _ := run(&rel.Engine{Cat: cat, Backend: rel.Interpreted})
		ores, ostats := run(&rel.Engine{Cat: cat, Backend: rel.BulkCompiled, CollectStats: true})
		hres, hstats := run(&hyper.Engine{Cat: cat})

		mustAgree(num, vres, ires)
		mustAgree(num, vres, ores)
		mustAgree(num, vres, hres)
		if num == 1 {
			q1 = vres
		}

		fmt.Printf("Q%-3d %d rows — engines agree\n", num, len(vres.Rows))
		fmt.Printf("     Voodoo  cpu %7.2f ms   gpu %7.2f ms\n",
			cpu.Time(vstats)*1000, gpu.Time(vstats)*1000)
		fmt.Printf("     Ocelot  cpu %7.2f ms   gpu %7.2f ms\n",
			cpu.Time(ostats)*1000, gpu.Time(ostats)*1000)
		fmt.Printf("     HyPeR   cpu %7.2f ms   (CPU-only)\n\n", cpu.Time(hstats)*1000)
	}

	// And one ad-hoc look at a result.
	fmt.Println("Q1 result (flags decoded):")
	for _, row := range q1.Rows {
		fmt.Printf("  %s/%s  qty=%.0f  count=%.0f  avg_disc=%.4f\n",
			q1.Decode("l_returnflag", row["l_returnflag"]),
			q1.Decode("l_linestatus", row["l_linestatus"]),
			row["sum_qty"], row["count_order"], row["avg_disc"])
	}
}

func mustAgree(num int, a, b *rel.Result) {
	if len(a.Rows) != len(b.Rows) {
		log.Fatalf("q%d: row count mismatch %d vs %d", num, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for _, c := range a.Cols {
			av, bv := a.Rows[i][c], b.Rows[i][c]
			if math.Abs(av-bv) > 1e-6*math.Max(1, math.Abs(av)) {
				log.Fatalf("q%d row %d col %s: %g vs %g", num, i, c, av, bv)
			}
		}
	}
}
