package bench

import (
	"fmt"
	"strings"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/device"
	"voodoo/internal/rel"
	"voodoo/internal/tpch"
	"voodoo/internal/verify"
)

// TestBulkCostsMoreThanFused verifies the Ocelot baseline's defining
// property (rel.BulkCompiled): the same query moves far more memory (full
// materialization) than the fused Voodoo backend — the cost the paper
// attributes to Ocelot on the CPU.
func TestBulkCostsMoreThanFused(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Seed: 42})
	qf, err := tpch.Query(6)
	if err != nil {
		t.Fatal(err)
	}
	ores, ostats, err := qf(&rel.Engine{Cat: cat, Backend: rel.BulkCompiled, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	vres, vstats, err := qf(&rel.Engine{Cat: cat, Backend: rel.Compiled, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ores.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(ores.Rows))
	}
	if d := ores.Rows[0]["revenue"] - vres.Rows[0]["revenue"]; d > 1e-6 || d < -1e-6 {
		t.Fatalf("results differ: %v vs %v", ores.Rows, vres.Rows)
	}
	var obytes, vbytes int64
	for _, f := range ostats.Frags {
		obytes += f.SeqBytes
	}
	for _, f := range vstats.Frags {
		vbytes += f.SeqBytes
	}
	if obytes < 3*vbytes {
		t.Errorf("bulk should move much more memory: %d vs %d bytes", obytes, vbytes)
	}
	cpu := device.CPU(8)
	if !(cpu.Time(ostats) > cpu.Time(vstats)) {
		t.Error("bulk should be slower on the CPU model")
	}
	// On the GPU, bandwidth shrinks the gap (paper Figure 12 vs 13).
	gpu := device.GPU()
	cpuRatio := cpu.Time(ostats) / cpu.Time(vstats)
	gpuRatio := gpu.Time(ostats) / gpu.Time(vstats)
	if !(gpuRatio < cpuRatio) {
		t.Errorf("GPU should forgive materialization: gpu ratio %g vs cpu ratio %g", gpuRatio, cpuRatio)
	}
}

// reductionCarries reports, through t, every loop instruction of a
// reduce_* or greduce_* fragment of p that verify.BatchFacts classes
// Carried — the second level of an aggregation must be an ordinary fold,
// whose accumulators fold in place with nothing tying a tile to one
// iteration — and returns how many such fragments p has.
func reductionCarries(t *testing.T, where string, p *compile.Plan) int {
	t.Helper()
	n := 0
	for _, f := range p.Kernel().Frags {
		if !strings.HasPrefix(f.Name, "reduce_") && !strings.HasPrefix(f.Name, "greduce_") {
			continue
		}
		n++
		facts := verify.BatchFacts(f)
		if facts.Violation != nil {
			t.Errorf("%s: %s breaks the fragment contract: %s", where, f.Name, facts.Violation)
			continue
		}
		for li, l := range f.Loops {
			for i, c := range facts.Loops[li].Class {
				if c == verify.Carried {
					t.Errorf("%s: %s loop%d instruction %d %q is Carried", where, f.Name, li, i, l.Body[i])
				}
			}
		}
	}
	return n
}

// TestNoReductionCarries checks reductionCarries on every lowered TPC-H
// query, with and without predication. TestFiguresGolden checks it on
// every program the figure targets compile.
func TestNoReductionCarries(t *testing.T) {
	reductions := 0
	cat := tpchCatalog(goldenCfg)
	for _, pred := range []bool{false, true} {
		e := &rel.Engine{Cat: cat, Backend: rel.Compiled, Opt: compile.Options{Predication: pred}}
		for _, num := range tpch.QueryNumbers {
			where := fmt.Sprintf("q%d predication=%v", num, pred)
			q, err := tpch.Plan(num, cat)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := e.Prepare(q)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			reductions += reductionCarries(t, where, pr.Plan())
		}
	}
	if reductions == 0 {
		t.Fatal("no reduce_* or greduce_* fragment was compiled; the test checked nothing")
	}
}
