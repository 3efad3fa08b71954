// Package voodoo's root benchmarks regenerate every table and figure of
// the paper's evaluation (one testing.B benchmark per figure) and measure
// the raw machinery (kernel execution, backend comparison) in wall-clock
// time. Run with:
//
//	go test -bench=. -benchmem
//
// The Benchmark*Figure benches report the simulated times of a selected
// data point alongside (metric "sim_ms"); see EXPERIMENTS.md for the full
// regenerated tables.
package voodoo

import (
	"context"
	"testing"

	"voodoo/internal/bench"
	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/interp"
	"voodoo/internal/rel"
	"voodoo/internal/tpch"
	"voodoo/internal/vector"
)

// benchCfg is deliberately small so `go test -bench .` stays responsive;
// cmd/voodoo-bench runs the full-size sweep.
var benchCfg = bench.Config{N: 1 << 16, SF: 0.005, Seed: 42}

// BenchmarkFig1 regenerates Figure 1 (branching vs branch-free selection).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig1(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(fig.SeriesByName("Single Thread Branch").At(0.5)*1000, "sim_ms_branch@50")
			b.ReportMetric(fig.SeriesByName("Single Thread No Branch").At(0.5)*1000, "sim_ms_nobranch@50")
		}
	}
}

// BenchmarkFig12 regenerates Figure 12 (TPC-H on GPU, Voodoo vs Ocelot).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.Fig12(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(tbl.Time(1, "Voodoo"), "sim_ms_q1_voodoo")
			b.ReportMetric(tbl.Time(1, "Ocelot"), "sim_ms_q1_ocelot")
		}
	}
}

// BenchmarkFig13 regenerates Figure 13 (TPC-H on CPU, HyPer vs Voodoo vs
// Ocelot).
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.Fig13(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(tbl.Time(6, "Voodoo"), "sim_ms_q6_voodoo")
			b.ReportMetric(tbl.Time(6, "HyPeR"), "sim_ms_q6_hyper")
		}
	}
}

// BenchmarkFig14 regenerates Figure 14 (JIT layout transformation, all
// three sub-figures).
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig14Native(benchCfg); err != nil {
			b.Fatal(err)
		}
		figs, err := bench.Fig14(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(figs["fig14b"].SeriesByName("Layout Transform").At(2)*1000, "sim_ms_transform@128MB")
		}
	}
}

// BenchmarkFig15 regenerates Figure 15 (selection strategies, all three
// sub-figures).
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig15Native(benchCfg); err != nil {
			b.Fatal(err)
		}
		figs, err := bench.Fig15(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(figs["fig15b"].SeriesByName("Vectorized (BF)").At(0.5)*1000, "sim_ms_vectorized@50")
		}
	}
}

// BenchmarkFig16 regenerates Figure 16 (selective FK joins, all three
// sub-figures).
func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig16Native(benchCfg); err != nil {
			b.Fatal(err)
		}
		figs, err := bench.Fig16(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(figs["fig16b"].SeriesByName("Predicated Lookups").At(0.5)*1000, "sim_ms_predlookup@50")
		}
	}
}

// BenchmarkAblations regenerates the design-choice ablation table.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Ablations(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Raw machinery wall-clock benches -------------------------------------

func selectionStorage(n int) interp.MemStorage {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%1000) / 1000
	}
	return interp.MemStorage{"input": vector.New(n).Set("val", vector.NewFloat(vals))}
}

func selectionProgram(n int) *core.Program {
	b := core.NewBuilder()
	in := b.Load("input")
	pred := b.Less(in, "", b.ConstantF(0.5), "")
	ids := b.Range(in)
	fold := b.Project("fold", b.Divide(ids, b.Constant(int64(n/64))), "")
	pf := b.Zip("p", pred, "", "fold", fold, "fold")
	sel := b.FoldSelect(pf, "fold", "p")
	g := b.Gather(in, sel, "")
	b.FoldSum(g, "", "")
	return b.Program()
}

// BenchmarkCompiledSelection measures compiled kernel execution wall time.
func BenchmarkCompiledSelection(b *testing.B) {
	n := 1 << 18
	st := selectionStorage(n)
	plan, err := compile.Compile(selectionProgram(n), st, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.RunWith(context.Background(), compile.RunOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpretedSelection measures the bulk interpreter on the same
// program (the backend gap of paper §3.2).
func BenchmarkInterpretedSelection(b *testing.B) {
	n := 1 << 16 // the interpreter is the slow reference; keep it small
	st := selectionStorage(n)
	prog := selectionProgram(n)
	b.SetBytes(int64(n) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interp.Run(context.Background(), prog, st, interp.Opts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures query-compilation latency (algebra → kernel).
func BenchmarkCompile(b *testing.B) {
	n := 1 << 12
	st := selectionStorage(n)
	prog := selectionProgram(n)
	for i := 0; i < b.N; i++ {
		if _, err := compile.Compile(prog, st, compile.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTPCH measures end-to-end wall time per query on the compiled
// backend.
func BenchmarkTPCH(b *testing.B) {
	cat := tpch.Generate(tpch.Config{SF: benchCfg.SF, Seed: benchCfg.Seed})
	for _, num := range []int{1, 5, 6, 19} {
		qf, err := tpch.Query(num)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(map[int]string{1: "Q1", 5: "Q5", 6: "Q6", 19: "Q19"}[num], func(b *testing.B) {
			e := &rel.Engine{Cat: cat, Backend: rel.Compiled}
			for i := 0; i < b.N; i++ {
				if _, _, err := qf(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
