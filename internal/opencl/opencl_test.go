package opencl

import (
	"math"
	"strings"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/interp"
	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

// goldenSum is the expected source for a hand-built blocked fold-sum
// fragment. The IR is constructed directly (no compiler), so the text is
// stable.
const goldenSum = `// Generated by the Voodoo OpenCL backend.
// One kernel per fragment; global barriers fall between kernels.

// extent=4 intent=8 n=32
__kernel void foldsum(
    __global long* buf0 /* in */,
    __global long* buf1 /* out */
) {
    const long gid = get_global_id(0);
    long r4 = 0;
    long r5 = 0;
    r4 = 0;
    for (long iv = 0; iv < 8; iv++) { // loop 0
        const long idx = gid * 8 + iv;
        if (idx >= 32) break;
        r5 = buf0[idx];
        r4 = r4 + r5;
    }
    buf1[gid] = r4;
}

`

func TestGoldenFoldSum(t *testing.T) {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: 32, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: 4})
	acc, v := kernel.FirstFree, kernel.FirstFree+1
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "foldsum", Extent: 4, Intent: 8, N: 32,
		Pre: []kernel.Instr{{Op: kernel.IConstI, Dst: acc, Imm: 0}},
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: acc, A: acc, B: v},
		}}},
		Post: []kernel.Instr{{Op: kernel.IStore, A: kernel.RegGID, B: acc, Buf: out, Seq: true}},
	})
	got := Generate(k)
	if got != goldenSum {
		t.Errorf("golden mismatch\n--- want ---\n%s\n--- got ---\n%s", goldenSum, got)
	}
}

func TestFloatLiterals(t *testing.T) {
	for v, want := range map[float64]string{
		0: "0.0", math.Copysign(0, -1): "-0.0", 1.5: "1.5", 2: "2.0", 1e300: "1e+300",
		math.Inf(1): "INFINITY", math.Inf(-1): "-INFINITY", math.NaN(): "NAN",
	} {
		if got := cFloat(v); got != want {
			t.Errorf("cFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestCompiledProgramRendering checks that a compiled Voodoo program renders
// structurally valid OpenCL: balanced braces, one __kernel per fragment, and
// the expected constructs for branching vs predicated selections.
func TestCompiledProgramRendering(t *testing.T) {
	st := interp.MemStorage{"t": vector.New(64).Set("v", vector.NewInt(make([]int64, 64)))}
	build := func() *core.Builder {
		b := core.NewBuilder()
		in := b.Load("t")
		ids := b.Range(in)
		fold := b.Project("fold", b.Divide(ids, b.Constant(16)), "")
		pred := b.Greater(in, b.Constant(5))
		withFold := b.Zip("v", pred, "", "fold", fold, "fold")
		sel := b.FoldSelect(withFold, "fold", "v")
		g := b.Gather(in, sel, "")
		b.FoldSum(g, "", "")
		return b
	}

	branching, err := compile.Compile(build().Program(), st, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srcB := Generate(branching.Kernel())
	if !strings.Contains(srcB, "continue;") {
		t.Error("branching mode should emit a data-dependent continue")
	}

	predicated, err := compile.Compile(build().Program(), st, compile.Options{Predication: true})
	if err != nil {
		t.Fatal(err)
	}
	srcP := Generate(predicated.Kernel())
	if strings.Contains(srcP, "continue;") {
		t.Error("predicated mode should not branch on the predicate")
	}
	if !strings.Contains(srcP, "loc[") {
		t.Error("predicated mode should keep a run-local position buffer")
	}

	for name, src := range map[string]string{"branching": srcB, "predicated": srcP} {
		if strings.Count(src, "{") != strings.Count(src, "}") {
			t.Errorf("%s: unbalanced braces", name)
		}
		if strings.Count(src, "__kernel") == 0 {
			t.Errorf("%s: no kernels generated", name)
		}
	}
}

func TestValidityMaskRendering(t *testing.T) {
	// A gather with possibly-out-of-bounds positions produces ε slots: the
	// generated code must carry validity masks.
	st := interp.MemStorage{
		"fact":   vector.New(8).Set("fk", vector.NewInt(make([]int64, 8))),
		"target": vector.New(4).Set("v", vector.NewInt(make([]int64, 4))),
	}
	b := core.NewBuilder()
	fact := b.Load("fact")
	target := b.Load("target")
	g := b.Gather(target, fact, "fk")
	b.Materialize(g, g, "")
	plan, err := compile.Compile(b.Program(), st, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := Generate(plan.Kernel())
	if !strings.Contains(src, "_valid") {
		t.Error("expected validity mask parameters in generated code")
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("mat.x#3"); got != "mat_x_3" {
		t.Errorf("sanitize = %q", got)
	}
}
