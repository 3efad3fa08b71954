package compile_test

import (
	"context"
	"errors"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/exec"
	"voodoo/internal/faultinject"
	"voodoo/internal/interp"
	"voodoo/internal/vector"
)

// sumPlan compiles the Figure-3-style hierarchical sum over n values.
func sumPlan(t *testing.T, n int) *compile.Plan {
	t.Helper()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = 1
	}
	st := interp.MemStorage{
		"input": vector.New(n).Set("val", vector.NewInt(vals)),
	}
	b := core.NewBuilder()
	input := b.Load("input")
	ids := b.Range(input)
	part := b.Project("partition", b.Divide(ids, b.Constant(16)), "")
	withPart := b.Zip("val", input, "val", "partition", part, "partition")
	pSum := b.FoldSum(withPart, "partition", "val")
	b.GlobalSum(pSum, "")
	plan, err := compile.Compile(b.Program(), st, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestPlanRunContextCancelled(t *testing.T) {
	plan := sumPlan(t, 1024)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.RunWith(ctx, compile.RunOpts{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPlanGovernorMaxBytes(t *testing.T) {
	// The kernel needs several n-slot buffers; a budget far below n*8
	// must fail before any work runs.
	plan := sumPlan(t, 1<<16)
	_, err := plan.RunWith(context.Background(), compile.RunOpts{Limits: exec.Limits{MaxBytes: 1024}})
	if !errors.Is(err, exec.ErrResourceExhausted) {
		t.Fatalf("err = %v, want ErrResourceExhausted", err)
	}
	// A generous budget runs to completion — on the same, unmutated plan.
	if _, err := plan.RunWith(context.Background(), compile.RunOpts{Limits: exec.Limits{MaxBytes: 1 << 26}}); err != nil {
		t.Fatalf("within budget: %v", err)
	}
}

// TestPlanFragmentPanicIsolated injects a mid-fragment panic through the
// full compiled-plan path and asserts it surfaces as *exec.PanicError.
func TestPlanFragmentPanicIsolated(t *testing.T) {
	faultinject.With(t, faultinject.Hooks{
		Item: func(frag string, gid int) { panic("injected plan bug") },
	})
	plan := sumPlan(t, 1024)
	_, err := plan.RunWith(context.Background(), compile.RunOpts{})
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *exec.PanicError", err, err)
	}
	if pe.Value != "injected plan bug" {
		t.Errorf("panic value = %v", pe.Value)
	}
}

// TestBulkPlanChargesAllocations runs the ForceBulk (Ocelot-style) path,
// whose steps allocate output buffers at runtime, under a tiny budget.
func TestBulkPlanChargesAllocations(t *testing.T) {
	n := 1 << 14
	vals := make([]int64, n)
	st := interp.MemStorage{
		"input": vector.New(n).Set("val", vector.NewInt(vals)),
	}
	b := core.NewBuilder()
	input := b.Load("input")
	ids := b.Range(input)
	b.GlobalSum(b.Project("x", b.Add(ids, ids), ""), "x")
	plan, err := compile.Compile(b.Program(), st, compile.Options{ForceBulk: true})
	if err != nil {
		t.Fatal(err)
	}
	ro := compile.RunOpts{Limits: exec.Limits{MaxBytes: 2048}}
	if _, err := plan.RunWith(context.Background(), ro); !errors.Is(err, exec.ErrResourceExhausted) {
		t.Fatalf("err = %v, want ErrResourceExhausted", err)
	}
}
