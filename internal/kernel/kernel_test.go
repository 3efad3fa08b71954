package kernel

import (
	"strings"
	"testing"

	"voodoo/internal/vector"
)

func TestStaticBodyOps(t *testing.T) {
	f := &Fragment{
		Loops: []Loop{
			{Body: []Instr{
				{Op: IBin, BOp: BAdd},
				{Op: IBin, BOp: BMul, Float: true},
				{Op: ISel},
				{Op: ICastIF},
				{Op: ILoad},  // memory, not ALU
				{Op: IStore}, // memory, not ALU
			}},
			{Body: []Instr{
				{Op: IBin, BOp: BSub},
			}},
		},
	}
	i, fl := f.StaticBodyOps()
	if i != 4 || fl != 1 {
		t.Fatalf("StaticBodyOps = (%d, %d), want (4, 1)", i, fl)
	}
}

func TestSequential(t *testing.T) {
	if !(&Fragment{Extent: 1}).Sequential() {
		t.Error("extent 1 should be sequential")
	}
	if (&Fragment{Extent: 2}).Sequential() {
		t.Error("extent 2 should not be sequential")
	}
}

func TestKernelString(t *testing.T) {
	k := &Kernel{}
	in := k.AddBuf(BufDecl{Name: "in", Kind: vector.Int, Size: 8, Input: true})
	out := k.AddBuf(BufDecl{Name: "out", Kind: vector.Float, Size: 2, Valid: true})
	k.Frags = append(k.Frags, &Fragment{
		Name: "f", Extent: 2, Intent: 4, N: 8, Strided: true, Locals: 3,
		Pre: []Instr{{Op: IConstF, Dst: FirstFree, FImm: 1.5}},
		Loops: []Loop{{BoundReg: FirstFree + 1, Body: []Instr{
			{Op: ILoad, Dst: FirstFree + 2, A: RegIdx, Buf: in, Seq: true},
			{Op: IGuard, A: FirstFree + 2},
			{Op: ILoadLoc, Dst: FirstFree + 3, A: RegIV},
			{Op: IStoreLoc, A: RegIV, B: FirstFree + 3},
			{Op: ISel, Dst: FirstFree + 4, A: FirstFree + 2, B: FirstFree + 3, C: FirstFree + 2},
			{Op: ICastFI, Dst: FirstFree + 5, A: FirstFree},
			{Op: IMov, Dst: FirstFree + 6, A: FirstFree + 5},
			{Op: ILoadValid, Dst: FirstFree + 7, A: RegIdx, Buf: out},
			{Op: IStore, A: RegGID, B: FirstFree, Buf: out, Float: true},
		}}},
	})
	s := k.String()
	for _, want := range []string{
		"buf 0 in int[8] (input)",
		"buf 1 out float[2] (temp)",
		"fragment f extent=2 intent=4 n=8 strided locals=3",
		"min r5", // dynamic bound
		"guard r6",
		"loc[",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("listing missing %q:\n%s", want, s)
		}
	}
}

func TestBinOpString(t *testing.T) {
	if BAdd.String() != "add" || BMax.String() != "max" {
		t.Error("binop names wrong")
	}
	if !strings.HasPrefix(BinOp(99).String(), "bin(") {
		t.Error("unknown binop should stringify as bin(n)")
	}
}

func TestInstrString(t *testing.T) {
	cases := map[string]Instr{
		"r4 = 7":                        {Op: IConstI, Dst: FirstFree, Imm: 7},
		"r4 = 1.5":                      {Op: IConstF, Dst: FirstFree, FImm: 1.5},
		"guard r4":                      {Op: IGuard, A: FirstFree},
		"r4 = r5":                       {Op: IMov, Dst: FirstFree, A: FirstFree + 1},
		"loc[r4] = r5":                  {Op: IStoreLoc, A: FirstFree, B: FirstFree + 1},
		"store buf22[r0] = r4 seq=true": {Op: IStore, Buf: 22, A: RegGID, B: FirstFree, Seq: true},
		"fstore buf22[r0] = r4 valid=r5 seq=true": {Op: IStore, Float: true, Buf: 22, A: RegGID,
			B: FirstFree, C: FirstFree + 1, Seq: true},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("Instr.String() = %q, want %q", got, want)
		}
	}
}
