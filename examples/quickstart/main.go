// Quickstart: the paper's Figure 3 and Figure 4, end to end.
//
// Builds the multithreaded hierarchical aggregation of Figure 3 in the
// Voodoo algebra, runs it on the interpreter and the compiling backend, and
// then applies Figure 4's famous two-line diff — Divide (block partitions)
// becomes Modulo (SIMD lanes) — to show that retuning a Voodoo program for
// a different parallelism model is a metadata change, not a rewrite.
package main

import (
	"context"
	"fmt"
	"log"

	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/interp"
	"voodoo/internal/opencl"
	"voodoo/internal/vector"
)

// buildFigure3 is the paper's Figure 3 program: partition the input into
// blocks of partitionSize, sum each block in parallel, then reduce.
func buildFigure3(partitionSize int64) *core.Program {
	b := core.NewBuilder()
	input := b.Label(b.Load("input"), "input")
	ids := b.Label(b.Range(input), "ids")
	psize := b.Label(b.Constant(partitionSize), "partitionSize")
	partitionIDs := b.Label(b.Project("partition", b.Divide(ids, psize), ""), "partitionIDs")
	inputWPart := b.Label(
		b.Zip("val", input, "val", "partition", partitionIDs, "partition"), "inputWPart")
	pSum := b.Label(b.FoldSum(inputWPart, "partition", "val"), "pSum")
	b.Label(b.GlobalSum(pSum, ""), "totalSum")
	return b.Program()
}

// buildFigure4 applies the paper's textual diff: the constant now encodes
// the number of SIMD lanes and the partition ids are circular; a Partition
// and Scatter regroup the lanes — which the compiler turns into pure index
// arithmetic (virtual scatter), never materializing anything.
func buildFigure4(laneCount int64) *core.Program {
	b := core.NewBuilder()
	input := b.Label(b.Load("input"), "input")
	ids := b.Label(b.Range(input), "ids")
	lanes := b.Label(b.Constant(laneCount), "laneCount")
	partitionIDs := b.Label(b.Project("partition", b.Modulo(ids, lanes), ""), "partitionIDs")
	inputWPart := b.Label(
		b.Zip("val", input, "val", "partition", partitionIDs, "partition"), "inputWPart")
	positions := b.Label(
		b.Partition("pos", partitionIDs, "partition", b.RangeN(0, int(laneCount), 1), ""), "positions")
	posVec := b.Upsert(inputWPart, "pos", positions, "pos")
	scattered := b.Label(b.Scatter(inputWPart, input, "", posVec, "pos"), "partInput")
	pSum := b.Label(b.FoldSum(scattered, "partition", "val"), "pSum")
	b.Label(b.GlobalSum(pSum, ""), "totalSum")
	return b.Program()
}

func main() {
	// A little input: 1..64.
	n := 64
	vals := make([]int64, n)
	var want int64
	for i := range vals {
		vals[i] = int64(i + 1)
		want += vals[i]
	}
	st := interp.MemStorage{"input": vector.New(n).Set("val", vector.NewInt(vals))}

	fig3 := buildFigure3(8)
	fmt.Println("=== Figure 3: multithreaded hierarchical aggregation ===")
	fmt.Println(fig3)

	// Reference semantics: the interpreter (paper §3.2).
	ires, err := interp.Run(context.Background(), fig3, st, interp.Opts{})
	if err != nil {
		log.Fatal(err)
	}
	root := core.Ref(len(fig3.Stmts) - 1)
	fmt.Printf("interpreter total = %d (want %d)\n\n", ires.Value(root).SingleCol().Int(0), want)

	// The compiling backend (paper §3.1): fused fragments.
	plan, err := compile.Compile(fig3, st, compile.Options{})
	if err != nil {
		log.Fatal(err)
	}
	cres, err := plan.RunWith(context.Background(), compile.RunOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled total   = %d\n\n", cres.Values[root].SingleCol().Int(0))
	fmt.Println("fragments generated for Figure 3:")
	fmt.Println(plan.Kernel())

	// The two-line retune (Figure 4): Divide -> Modulo.
	fig4 := buildFigure4(4)
	fmt.Println("=== Figure 4: the same program retuned to SIMD lanes ===")
	fmt.Println(fig4)
	plan4, err := compile.Compile(fig4, st, compile.Options{})
	if err != nil {
		log.Fatal(err)
	}
	cres4, err := plan4.RunWith(context.Background(), compile.RunOpts{})
	if err != nil {
		log.Fatal(err)
	}
	root4 := core.Ref(len(fig4.Stmts) - 1)
	fmt.Printf("compiled total   = %d (the scatter dissolved into strided index arithmetic)\n\n",
		cres4.Values[root4].SingleCol().Int(0))

	fmt.Println("OpenCL the backend would ship for Figure 4:")
	fmt.Println(opencl.Generate(plan4.Kernel()))
}
