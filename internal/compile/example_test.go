package compile_test

import (
	"context"
	"fmt"

	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/interp"
	"voodoo/internal/vector"
)

// Example builds the paper's Figure 3 (hierarchical aggregation), compiles
// it, and prints the total.
func Example() {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	st := interp.MemStorage{
		"input": vector.New(100).Set("val", vector.NewInt(vals)),
	}

	b := core.NewBuilder()
	input := b.Load("input")
	ids := b.Range(input)
	part := b.Project("partition", b.Divide(ids, b.Constant(10)), "")
	withPart := b.Zip("val", input, "val", "partition", part, "partition")
	pSum := b.FoldSum(withPart, "partition", "val")
	total := b.GlobalSum(pSum, "")

	plan, err := compile.Compile(b.Program(), st, compile.Options{})
	if err != nil {
		panic(err)
	}
	res, err := plan.RunWith(context.Background(), compile.RunOpts{})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Values[total].SingleCol().Int(0))
	// Output: 5050
}

// ExampleOptions_predication shows the same selection compiled branching
// and branch-free: identical results, different kernels.
func ExampleOptions_predication() {
	st := interp.MemStorage{
		"t": vector.New(8).Set("v", vector.NewInt([]int64{5, 1, 7, 2, 9, 3, 8, 0})),
	}
	build := func() (*core.Program, core.Ref) {
		b := core.NewBuilder()
		in := b.Load("t")
		pred := b.Greater(in, b.Constant(4))
		sel := b.FoldSelect(pred, "", "")
		g := b.Gather(in, sel, "")
		sum := b.FoldSum(g, "", "")
		return b.Program(), sum
	}
	for _, predication := range []bool{false, true} {
		prog, root := build()
		plan, err := compile.Compile(prog, st, compile.Options{Predication: predication})
		if err != nil {
			panic(err)
		}
		res, err := plan.RunWith(context.Background(), compile.RunOpts{})
		if err != nil {
			panic(err)
		}
		fmt.Println(res.Values[root].SingleCol().Int(0))
	}
	// Output:
	// 29
	// 29
}

// ExamplePlan_Kernel prints the fragment structure of a compiled program.
func ExamplePlan_Kernel() {
	st := interp.MemStorage{
		"t": vector.New(16).Set("v", vector.NewInt(make([]int64, 16))),
	}
	b := core.NewBuilder()
	in := b.Load("t")
	ids := b.Range(in)
	fold := b.Project("fold", b.Divide(ids, b.Constant(4)), "")
	withFold := b.Zip("v", in, "", "fold", fold, "fold")
	b.FoldSum(withFold, "fold", "v")
	plan, err := compile.Compile(b.Program(), st, compile.Options{})
	if err != nil {
		panic(err)
	}
	for _, f := range plan.Kernel().Frags {
		fmt.Printf("%s: extent=%d intent=%d\n", f.Name, f.Extent, f.Intent)
	}
	// Output: fold_6: extent=4 intent=4
}
