package exec

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"voodoo/internal/kernel"
	"voodoo/internal/vector"
	"voodoo/internal/verify"
)

// earlyShape varies earlyKernel's loop body, one way per early-point rule.
type earlyShape struct {
	op     kernel.BinOp   // of the instruction after the third conjunct
	probeU bool           // the gather's validity probe reads u, not t, the buffer it gathers from
	window []kernel.Instr // inserted right after the third conjunct
	short  int            // slots of b, the sequential column, when positive
	cut    bool           // a guard first, which lanes past b's end fail
}

// Registers of earlyKernel.
const (
	eA = kernel.FirstFree + iota
	eK3
	eC1
	eB
	eV
	eZ
	eS
	eG
	eK5
	eC2
	eX
	eY
	eC3
	eT1
	eT2
	eT3
	eAcc
	eAcc2
	eCut
	eLoc
)

// earlyKernel is a filter fold whose guard is the and of four conjuncts:
//
//	c1 = a[idx] > 3; v = valid t[b[idx]]; c2 = t[v ? b[idx] : 0] > 5;
//	c3 = (a[idx] op t[…]) * a[idx] >= 3
//
// summing the product of the rows that pass per work item. c1, v and c2
// have long windows, each holding the gather of t by its own validity; c3
// has three instructions before the guard, under the threshold. The inputs
// (earlyInputs) hide a fault behind c1 for each way a window can be unsafe:
// a zero divisor, a gather past t's end, a row past b's end.
func earlyKernel(sh earlyShape) *kernel.Kernel {
	const extent, intent, n = 64, 16, 1000
	k := &kernel.Kernel{}
	a := k.AddBuf(kernel.BufDecl{Name: "a", Kind: vector.Int, Size: n, Input: true})
	bsize := n
	if sh.short > 0 {
		bsize = sh.short
	}
	b := k.AddBuf(kernel.BufDecl{Name: "b", Kind: vector.Int, Size: bsize, Input: true})
	t := k.AddBuf(kernel.BufDecl{Name: "t", Kind: vector.Int, Size: 50, Valid: true, Input: true})
	u := k.AddBuf(kernel.BufDecl{Name: "u", Kind: vector.Int, Size: 60, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: extent})
	out2 := k.AddBuf(kernel.BufDecl{Name: "out2", Kind: vector.Int, Size: extent})
	k.AddBuf(kernel.BufDecl{Name: "side", Kind: vector.Int, Size: n}) // buf 6, a store's target
	vbuf := t
	if sh.probeU {
		vbuf = u
	}
	body := []kernel.Instr{
		{Op: kernel.ILoad, Dst: eA, A: kernel.RegIdx, Buf: a, Seq: true},
		{Op: kernel.IConstI, Dst: eK3, Imm: 3},
		{Op: kernel.IBin, BOp: kernel.BGt, Dst: eC1, A: eA, B: eK3}, // 2: c1
		{Op: kernel.ILoad, Dst: eB, A: kernel.RegIdx, Buf: b, Seq: true},
		{Op: kernel.ILoadValid, Dst: eV, A: eB, Buf: vbuf}, // 4: v
		{Op: kernel.IConstI, Dst: eZ, Imm: 0},
		{Op: kernel.ISel, Dst: eS, A: eV, B: eB, C: eZ},
		{Op: kernel.ILoad, Dst: eG, A: eS, Buf: t},
		{Op: kernel.IConstI, Dst: eK5, Imm: 5},
		{Op: kernel.IBin, BOp: kernel.BGt, Dst: eC2, A: eG, B: eK5}, // 9: c2
	}
	body = append(body, sh.window...)
	body = append(body,
		kernel.Instr{Op: kernel.IBin, BOp: sh.op, Dst: eX, A: eA, B: eG},
		kernel.Instr{Op: kernel.IBin, BOp: kernel.BMul, Dst: eY, A: eX, B: eA},
		kernel.Instr{Op: kernel.IBin, BOp: kernel.BGe, Dst: eC3, A: eY, B: eK3}, // c3
		kernel.Instr{Op: kernel.IBin, BOp: kernel.BAnd, Dst: eT1, A: eC1, B: eV},
		kernel.Instr{Op: kernel.IBin, BOp: kernel.BAnd, Dst: eT2, A: eT1, B: eC2},
		kernel.Instr{Op: kernel.IBin, BOp: kernel.BAnd, Dst: eT3, A: eT2, B: eC3},
		kernel.Instr{Op: kernel.IGuard, A: eT3},
		kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: eAcc, A: eAcc, B: eY},
	)
	if sh.cut {
		// Lanes at or past b's end leave here, ahead of every conjunct.
		body = append([]kernel.Instr{
			{Op: kernel.IConstI, Dst: eCut, Imm: int64(bsize)},
			{Op: kernel.IBin, BOp: kernel.BGt, Dst: eCut, A: eCut, B: kernel.RegIdx},
			{Op: kernel.IGuard, A: eCut},
		}, body...)
	}
	f := &kernel.Fragment{
		Name: "early", Extent: extent, Intent: intent, N: n,
		Pre:   []kernel.Instr{{Op: kernel.IConstI, Dst: eAcc, Imm: 0}, {Op: kernel.IConstI, Dst: eAcc2, Imm: 0}},
		Loops: []kernel.Loop{{Body: body}},
		Post: []kernel.Instr{
			{Op: kernel.IStore, A: kernel.RegGID, B: eAcc, Buf: out, Seq: true},
			{Op: kernel.IStore, A: kernel.RegGID, B: eAcc2, Buf: out2, Seq: true},
		},
	}
	for _, in := range sh.window {
		if in.Op == kernel.ILoadLoc {
			f.Locals, f.LocalsFloat = 1, true
		}
	}
	k.Frags = append(k.Frags, f)
	return k
}

// earlyInputs fills earlyKernel's inputs, b cut to short slots when that
// is positive. c1 passes about two rows in three. One row each holds a
// fault a window may hide — b = 17, where t holds 0, a divisor; b = 52, past
// t's end, where u still reads valid; and the last row, past a short b's end
// — and c1 fails on all three: element order meets the fault, tiles that
// dropped the row early would not. One fault apiece keeps the error text the
// same at any morsel size and worker count.
func earlyInputs(short int) map[string]*Buffer {
	const n = 1000
	a, b := make([]int64, n), make([]int64, n)
	for i := range a {
		a[i], b[i] = int64(i*7%11), int64(i*13%50)
		if b[i] == 17 {
			b[i] = 18
		}
	}
	for _, f := range [][2]int64{{333, 17}, {444, 52}, {n - 1, 3}} {
		a[f[0]], b[f[0]] = 0, f[1]
	}
	t, valid := make([]int64, 50), make([]bool, 50)
	for j := range t {
		t[j], valid[j] = int64(j%9+1), j%5 != 3
	}
	t[17] = 0
	if short > 0 {
		b = b[:short]
	}
	return map[string]*Buffer{
		"a": {Kind: vector.Int, I: a},
		"b": {Kind: vector.Int, I: b},
		"t": {Kind: vector.Int, I: t, Valid: valid},
		"u": {Kind: vector.Int, I: make([]int64, 60)},
	}
}

// TestEarlyPoints pins every early-point decision of verify.BatchFacts —
// which conjuncts of a guard the tiles apply ahead of it — and that taking
// them changes nothing anyone can see: at morsels 1, 7 and the cut rule's,
// over one worker and four, the tiles leave every buffer, Items, StoreBytes
// and error text exactly as element order does, and report the points they
// applied in FragStats.Early. Each refusal guards against something a
// dropped row would otherwise skip: a fault (the div, mod, gather and
// short-b rows fail if the window check goes), a store, a fold or a
// carried update.
func TestEarlyPoints(t *testing.T) {
	add := earlyShape{op: kernel.BAdd}
	with := func(mut func(*earlyShape)) earlyShape {
		sh := add
		mut(&sh)
		return sh
	}
	for _, tc := range []struct {
		name  string
		shape earlyShape
		at    []int  // the early points' instruction indices
		fault string // both orders' error: the first fault in element order
		early bool   // the tiles apply them
	}{
		// c1, v and c2; c3's window is three instructions, under earlyMin.
		{name: "taken", shape: add, at: []int{2, 4, 9}, early: true},
		{name: "div", shape: with(func(s *earlyShape) { s.op = kernel.BDiv }), fault: "integer division by zero"},
		{name: "mod", shape: with(func(s *earlyShape) { s.op = kernel.BMod }), fault: "integer modulo by zero"},
		// Probed through u, the gather of t is not proven in range: only c2,
		// defined after it, keeps its point.
		{name: "gather-not-by-own-validity", shape: with(func(s *earlyShape) { s.probeU = true }), at: []int{9},
			fault: "load out of bounds: buf 2 idx 52 len 50"},
		{name: "store", shape: with(func(s *earlyShape) {
			s.window = []kernel.Instr{{Op: kernel.IStore, A: kernel.RegIdx, B: eA, Buf: 6, Seq: true}}
		})},
		{name: "scratch", shape: with(func(s *earlyShape) {
			s.window = []kernel.Instr{{Op: kernel.ILoadLoc, Dst: eLoc, A: eZ, Float: true}}
		})},
		{name: "reduce", shape: with(func(s *earlyShape) {
			s.window = []kernel.Instr{{Op: kernel.IBin, BOp: kernel.BAdd, Dst: eAcc2, A: eAcc2, B: eA}}
		})},
		{name: "carried", shape: with(func(s *earlyShape) {
			s.window = []kernel.Instr{
				{Op: kernel.IBin, BOp: kernel.BAdd, Dst: eAcc2, A: eAcc2, B: eA},
				{Op: kernel.IBin, BOp: kernel.BMax, Dst: eAcc2, A: eAcc2, B: eK3},
			}
		})},
		// b is shorter than N: the points stand, but no run whose b misses
		// N slots applies them. Behind a guard that stops every row past b's
		// end nothing faults; without it a row past the end faults where only
		// the dropped rows reach.
		{name: "short-b", shape: with(func(s *earlyShape) { s.short, s.cut = 999, true }), at: []int{5, 7, 12}},
		{name: "short-b-faults", shape: with(func(s *earlyShape) { s.short = 999 }), at: []int{2, 4, 9},
			fault: "load out of bounds: buf 1 idx 999 len 999"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := earlyKernel(tc.shape)
			facts := verify.BatchFacts(k.Frags[0])
			if facts.Violation != nil {
				t.Fatalf("breaks the contract: %v", facts.Violation)
			}
			var at []int
			for _, e := range facts.Loops[0].Early {
				at = append(at, e.At)
			}
			if !slices.Equal(at, tc.at) {
				t.Fatalf("early points at %v, want %v\n%s", at, tc.at, k)
			}
			in := earlyInputs(tc.shape.short)
			run := func(par Par) (*Env, FragStats, error) {
				env := newEnv(k)
				for name, buf := range in {
					if err := env.bind(k, name, buf); err != nil {
						t.Fatal(err)
					}
				}
				var fs FragStats
				err := RunFragment(context.Background(), k.Frags[0], env, par, &fs, false)
				return env, fs, err
			}
			for _, workers := range []int{1, 4} {
				for _, morsel := range []int{1, 7, 0} {
					label := fmt.Sprintf("workers=%d morsel=%d", workers, morsel)
					want, wrec, werr := run(Par{Workers: workers, Morsel: morsel, NoSpecialize: true})
					got, grec, gerr := run(Par{Workers: workers, Morsel: morsel})
					if tc.fault != "" {
						if werr == nil || werr.Error() != tc.fault || gerr == nil || gerr.Error() != werr.Error() {
							t.Fatalf("%s: element order fails with %v, tiles with %v; want %q from both", label, werr, gerr, tc.fault)
						}
						continue
					}
					if werr != nil || gerr != nil {
						t.Fatalf("%s: element order: %v, tiles: %v", label, werr, gerr)
					}
					requireSameBufs(t, k, want, got, label)
					if grec.Items != wrec.Items || grec.StoreBytes != wrec.StoreBytes {
						t.Fatalf("%s: tiles items=%d store_bytes=%d, element order %d / %d",
							label, grec.Items, grec.StoreBytes, wrec.Items, wrec.StoreBytes)
					}
					if wantEarly := map[bool]int{true: len(tc.at)}[tc.early]; grec.Early != wantEarly || wrec.Early != 0 {
						t.Fatalf("%s: tiles applied %d early points, element order %d; want %d and 0",
							label, grec.Early, wrec.Early, wantEarly)
					}
				}
			}
		})
	}
}
