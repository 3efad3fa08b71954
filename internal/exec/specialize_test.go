package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"voodoo/internal/faultinject"
	"voodoo/internal/kernel"
	"voodoo/internal/vector"
	"voodoo/internal/verify"
)

// specKernel is one differential case: a kernel builder plus its inputs.
// Builders return fresh kernels so each run starts from an uncompiled
// fragment cache where the test wants that.
type specKernel struct {
	name  string
	build func() *kernel.Kernel
	in    map[string]*Buffer
	path  string // the tier the fragment takes with specialization on
	// acc is what the batch tier does with the scratch reductions: "wide"
	// in every tile, "fallback" in some, "" when there are none.
	acc string
}

// selectKernel is the canonical TPC-H selection shape: load → compare
// against a constant → guard → store.
func selectKernel(n int, cut int64) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
	rc, r0, r1 := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "sel", Extent: n, Intent: 1, N: n,
		Prov: kernel.Prov{Kind: "select"},
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.IConstI, Dst: rc, Imm: cut},
			{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IBin, BOp: kernel.BGt, Dst: r1, A: r0, B: rc},
			{Op: kernel.IGuard, A: r1},
			{Op: kernel.IStore, A: kernel.RegIdx, B: r0, Buf: out, Seq: true},
		}}},
	})
	return k
}

// mapFloatKernel is the canonical map shape in the float domain.
func mapFloatKernel(n int) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Float, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Float, Size: n})
	rc, r0, r1 := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "mapf", Extent: n, Intent: 1, N: n,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.IConstF, Dst: rc, FImm: 1.5, Float: true},
			{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: in, Seq: true, Float: true},
			{Op: kernel.IBin, BOp: kernel.BMul, Dst: r1, A: r0, B: rc, Float: true},
			{Op: kernel.IStore, A: kernel.RegIdx, B: r1, Buf: out, Seq: true, Float: true},
		}}},
	})
	return k
}

// foldKernel is the fold shape: Pre seeds an accumulator, the loop
// accumulates with op — the register carries across the iterations of its
// own work item, which is a lane's column persisting across steps — and
// Post stores one partial per work item. With strided set, lane g visits g,
// g+extent, ...; otherwise runs are blocked. n need not divide evenly (a
// ragged tail).
func foldKernel(n, extent int, op kernel.BinOp, strided bool) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "partial", Kind: vector.Int, Size: extent})
	intent := (n + extent - 1) / extent
	acc, v := kernel.FirstFree, kernel.FirstFree+1
	seed := int64(0)
	if op == kernel.BMin {
		seed = math.MaxInt64
	}
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "fold", Extent: extent, Intent: intent, N: n, Strided: strided,
		Pre: []kernel.Instr{{Op: kernel.IConstI, Dst: acc, Imm: seed}},
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in, Seq: !strided},
			{Op: kernel.IBin, BOp: op, Dst: acc, A: acc, B: v},
		}}},
		Post: []kernel.Instr{{Op: kernel.IStore, A: kernel.RegGID, B: acc, Buf: out, Seq: true}},
	})
	return k
}

// gatherKernel loads through an index column — a non-sequential access
// the batch compiler accepts.
func gatherKernel(n int) *kernel.Kernel {
	k := &kernel.Kernel{}
	idx := k.AddBuf(kernel.BufDecl{Name: "idx", Kind: vector.Int, Size: n, Input: true})
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
	r0, r1 := kernel.FirstFree, kernel.FirstFree+1
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "gather", Extent: n, Intent: 1, N: n,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: idx, Seq: true},
			{Op: kernel.ILoad, Dst: r1, A: r0, Buf: in},
			{Op: kernel.IStore, A: kernel.RegIdx, B: r1, Buf: out, Seq: true},
		}}},
	})
	return k
}

// mixedKernel chains validity loads, predicates, branch-free selection,
// both cast directions, and a second guarded store.
func mixedKernel(n int) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
	hits := k.AddBuf(kernel.BufDecl{Name: "hits", Kind: vector.Int, Size: n})
	rc := kernel.FirstFree
	r0, rv, r1, r2, r3, r4 := rc+1, rc+2, rc+3, rc+4, rc+5, rc+6
	f0, f1 := kernel.FirstFree, kernel.FirstFree+1 // float file
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "mixed", Extent: n, Intent: 1, N: n,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.IConstI, Dst: rc, Imm: 50},
			{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.ILoadValid, Dst: rv, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IBin, BOp: kernel.BGt, Dst: r1, A: r0, B: rc},
			{Op: kernel.IBin, BOp: kernel.BAnd, Dst: r2, A: r1, B: rv},
			{Op: kernel.ISel, Dst: r3, A: r2, B: r0, C: rc},
			{Op: kernel.ICastIF, Dst: f0, A: r3},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: f1, A: f0, B: f0, Float: true},
			{Op: kernel.ICastFI, Dst: r4, A: f1},
			{Op: kernel.IStore, A: kernel.RegIdx, B: r4, Buf: out, Seq: true},
			{Op: kernel.IGuard, A: r2},
			{Op: kernel.IStore, A: kernel.RegIdx, B: r0, Buf: hits, Seq: true},
		}}},
	})
	return k
}

// filterKernel is the cursor filter TPC-H selections compile to: each work
// item packs the elements of its run that exceed cut to the front of its
// own output block and reports how many it kept. Branching, a guard skips
// the store and the cursor bump; predicated, every element is stored at the
// cursor (a rejected one is overwritten by the next) and the cursor
// advances by the predicate.
func filterKernel(n, extent int, cut int64, predicated bool) *kernel.Kernel {
	k := &kernel.Kernel{}
	intent := (n + extent - 1) / extent
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: extent * intent, Valid: true})
	cnt := k.AddBuf(kernel.BufDecl{Name: "count", Kind: vector.Int, Size: extent})
	cur := kernel.FirstFree
	rc, v, keep, w, pos, one := cur+1, cur+2, cur+3, cur+4, cur+5, cur+6
	body := []kernel.Instr{
		{Op: kernel.IConstI, Dst: rc, Imm: cut},
		{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in, Seq: true},
		{Op: kernel.IBin, BOp: kernel.BGt, Dst: keep, A: v, B: rc},
		{Op: kernel.IConstI, Dst: w, Imm: int64(intent)},
		{Op: kernel.IBin, BOp: kernel.BMul, Dst: pos, A: kernel.RegGID, B: w},
		{Op: kernel.IBin, BOp: kernel.BAdd, Dst: pos, A: pos, B: cur},
	}
	if predicated {
		body = append(body,
			kernel.Instr{Op: kernel.IStore, A: pos, B: v, C: keep, Buf: out},
			kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: cur, A: cur, B: keep})
	} else {
		body = append(body,
			kernel.Instr{Op: kernel.IGuard, A: keep},
			kernel.Instr{Op: kernel.IStore, A: pos, B: v, Buf: out},
			kernel.Instr{Op: kernel.IConstI, Dst: one, Imm: 1},
			kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: cur, A: cur, B: one})
	}
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "filt", Extent: extent, Intent: intent, N: n,
		Prov:  kernel.Prov{Kind: "filter", Predicated: predicated},
		Pre:   []kernel.Instr{{Op: kernel.IConstI, Dst: cur, Imm: 0}},
		Loops: []kernel.Loop{{Body: body}},
		Post:  []kernel.Instr{{Op: kernel.IStore, A: kernel.RegGID, B: cur, Buf: cnt, Seq: true}},
	})
	return k
}

// filterFoldKernel is the predicated filter-fold: loop 0 collects the
// positions of qualifying elements in the work item's scratch array behind
// a cursor, loop 1 — bounded by that cursor, a dynamic bound read once at
// loop entry — gathers and sums them. Work items past the data (extent ×
// intent overshoots n by whole items) run no iteration of either loop.
func filterFoldKernel(n, extent, intent int, cut int64) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "partial", Kind: vector.Int, Size: extent})
	acc := kernel.FirstFree
	cur, rc, v, keep, p, x := acc+1, acc+2, acc+3, acc+4, acc+5, acc+6
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "ffold", Extent: extent, Intent: intent, N: n, Locals: intent,
		Prov: kernel.Prov{Kind: "filter-fold", Predicated: true},
		Pre: []kernel.Instr{
			{Op: kernel.IConstI, Dst: acc, Imm: 0},
			{Op: kernel.IConstI, Dst: cur, Imm: 0},
		},
		Loops: []kernel.Loop{
			{Body: []kernel.Instr{
				{Op: kernel.IConstI, Dst: rc, Imm: cut},
				{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in, Seq: true},
				{Op: kernel.IBin, BOp: kernel.BGt, Dst: keep, A: v, B: rc},
				{Op: kernel.IStoreLoc, A: cur, B: kernel.RegIdx},
				{Op: kernel.IBin, BOp: kernel.BAdd, Dst: cur, A: cur, B: keep},
			}},
			{BoundReg: cur, Body: []kernel.Instr{
				{Op: kernel.ILoadLoc, Dst: p, A: kernel.RegIV},
				{Op: kernel.ILoad, Dst: x, A: p, Buf: in},
				{Op: kernel.IBin, BOp: kernel.BAdd, Dst: acc, A: acc, B: x},
			}},
		},
		Post: []kernel.Instr{{Op: kernel.IStore, A: kernel.RegGID, B: acc, Buf: out, Seq: true}},
	})
	return k
}

// groupFoldKernel is the grouped aggregation shape: each work item sums its
// run into a float scratch array indexed by the element's group, behind a
// guard on the element's validity, and the post-loop body flushes the
// array, one slot per RegJ.
func groupFoldKernel(n, extent, groups int) *kernel.Kernel {
	k := &kernel.Kernel{}
	intent := (n + extent - 1) / extent
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "sums", Kind: vector.Float, Size: extent * groups})
	rg, ok, v, g := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2, kernel.FirstFree+3
	fv, fs := kernel.FirstFree, kernel.FirstFree+1 // float file
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "gfold", Extent: extent, Intent: intent, N: n,
		Locals: groups, LocalsFloat: true, LocalsInit: 0.5,
		Prov: kernel.Prov{Kind: "group-fold", Virtual: true},
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoadValid, Dst: ok, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IGuard, A: ok},
			{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IConstI, Dst: rg, Imm: int64(groups)},
			{Op: kernel.IBin, BOp: kernel.BMod, Dst: g, A: v, B: rg},
			{Op: kernel.ICastIF, Dst: fv, A: v},
			{Op: kernel.ILoadLoc, Dst: fs, A: g, Float: true},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: fs, A: fs, B: fv, Float: true},
			{Op: kernel.IStoreLoc, A: g, B: fs, Float: true},
		}}},
		PostLoopBody: []kernel.Instr{
			{Op: kernel.IConstI, Dst: rg, Imm: int64(groups)},
			{Op: kernel.IBin, BOp: kernel.BMul, Dst: g, A: kernel.RegGID, B: rg},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: g, A: g, B: kernel.RegJ},
			{Op: kernel.ILoadLoc, Dst: fs, A: kernel.RegJ, Float: true},
			{Op: kernel.IStore, A: g, B: fs, Buf: out, Seq: true, Float: true},
		},
	})
	return k
}

// redefKernel is the predicated cursor filter with a hazard of running the
// free slice ahead of the carried one: the value register is redefined
// (doubled, and stored per element) after the carried store has read it. The
// IR is not SSA, so a tile that computed all of v's definitions first would
// pack doubled values.
func redefKernel(n, extent int, cut int64) *kernel.Kernel {
	k := filterKernel(n, extent, cut, true)
	f := k.Frags[0]
	dbl := k.AddBuf(kernel.BufDecl{Name: "dbl", Kind: vector.Int, Size: extent * f.Intent})
	v := kernel.FirstFree + 2
	f.Loops[0].Body = append(f.Loops[0].Body,
		kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: v, A: v, B: v},
		kernel.Instr{Op: kernel.IStore, A: kernel.RegIdx, B: v, Buf: dbl, Seq: true})
	return k
}

// twoChainKernel has two scratch read-modify-write chains with a free guard
// between them: chain 1 adds the element to the slot of its group, chain 2 —
// for valid elements only — counts into the slot of the next group, which is
// chain 1's slot of a neighbouring element. With a handful of groups the
// keys collide inside every tile, and across the two chains.
func twoChainKernel(n, extent, groups int) *kernel.Kernel {
	k := &kernel.Kernel{}
	intent := (n + extent - 1) / extent
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "sums", Kind: vector.Int, Size: extent * groups})
	v := kernel.FirstFree
	rg, g, one, g2, a, ok, b, at := v+1, v+2, v+3, v+4, v+5, v+6, v+7, v+8
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "chains", Extent: extent, Intent: intent, N: n, Locals: groups,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IConstI, Dst: rg, Imm: int64(groups)},
			{Op: kernel.IBin, BOp: kernel.BMod, Dst: g, A: v, B: rg},
			{Op: kernel.IConstI, Dst: one, Imm: 1},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: g2, A: g, B: one},
			{Op: kernel.IBin, BOp: kernel.BMod, Dst: g2, A: g2, B: rg},
			{Op: kernel.ILoadLoc, Dst: a, A: g},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: a, A: a, B: v},
			{Op: kernel.IStoreLoc, A: g, B: a},
			{Op: kernel.ILoadValid, Dst: ok, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IGuard, A: ok},
			{Op: kernel.ILoadLoc, Dst: b, A: g2},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: b, A: b, B: one},
			{Op: kernel.IStoreLoc, A: g2, B: b},
		}}},
		PostLoopBody: []kernel.Instr{
			{Op: kernel.IConstI, Dst: at, Imm: int64(groups)},
			{Op: kernel.IBin, BOp: kernel.BMul, Dst: at, A: kernel.RegGID, B: at},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: at, A: at, B: kernel.RegJ},
			{Op: kernel.ILoadLoc, Dst: a, A: kernel.RegJ},
			{Op: kernel.IStore, A: at, B: a, Buf: out, Seq: true},
		},
	})
	return k
}

// firstFewKernel keeps the first three elements of every group: a guard on a
// count read back from the scratch array — a carried guard — ahead of the
// count's update and of two stores per element, one of which (the element
// itself) depends on nothing carried but the guard.
func firstFewKernel(n, extent, groups int) *kernel.Kernel {
	k := &kernel.Kernel{}
	intent := (n + extent - 1) / extent
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "rank", Kind: vector.Int, Size: extent * intent, Valid: true})
	kept := k.AddBuf(kernel.BufDecl{Name: "kept", Kind: vector.Int, Size: extent * intent, Valid: true})
	v := kernel.FirstFree
	rg, g, c, lim, t, one := v+1, v+2, v+3, v+4, v+5, v+6
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "firstfew", Extent: extent, Intent: intent, N: n, Locals: groups,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IConstI, Dst: rg, Imm: int64(groups)},
			{Op: kernel.IBin, BOp: kernel.BMod, Dst: g, A: v, B: rg},
			{Op: kernel.ILoadLoc, Dst: c, A: g},
			{Op: kernel.IConstI, Dst: lim, Imm: 3},
			{Op: kernel.IBin, BOp: kernel.BGt, Dst: t, A: lim, B: c},
			{Op: kernel.IGuard, A: t},
			{Op: kernel.IConstI, Dst: one, Imm: 1},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: c, A: c, B: one},
			{Op: kernel.IStoreLoc, A: g, B: c},
			{Op: kernel.IStore, A: kernel.RegIdx, B: c, Buf: out, Seq: true},
			{Op: kernel.IStore, A: kernel.RegIdx, B: v, Buf: kept, Seq: true},
		}}},
	})
	return k
}

// chainSpec is one scratch reduction of reduceKernel: loc[off + g] =
// op(loc[off + g], float(v)) with g = v mod groups.
type chainSpec struct {
	off int
	op  kernel.BinOp
}

// reduceKernel is the grouped-fold body the compiler emits: every scratch
// update is a reduction t = loc[i]; u = op(t, x); loc[i] = u with i and x
// computed from the element alone (verify.Chain). Chains whose offsets lie
// groups apart touch disjoint slots; closer ones alias. From chain guardAt on
// (-1: none) the chains sit behind a guard on the element's validity. The
// post-loop body flushes the scratch array.
func reduceKernel(n, extent, groups int, chains []chainSpec, guardAt int) *kernel.Kernel {
	k := &kernel.Kernel{}
	intent := (n + extent - 1) / extent
	locals := groups
	for _, c := range chains {
		locals = max(locals, c.off+groups)
	}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "table", Kind: vector.Float, Size: extent * locals})
	next, nextF := kernel.FirstFree, kernel.FirstFree
	reg := func() kernel.Reg { next++; return next - 1 }
	freg := func() kernel.Reg { nextF++; return nextF - 1 }
	v, rg, g, fv := reg(), reg(), reg(), freg()
	body := []kernel.Instr{
		{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in, Seq: true},
		{Op: kernel.IConstI, Dst: rg, Imm: int64(groups)},
		{Op: kernel.IBin, BOp: kernel.BMod, Dst: g, A: v, B: rg},
		{Op: kernel.ICastIF, Dst: fv, A: v},
	}
	for c, ch := range chains {
		if c == guardAt {
			ok := reg()
			body = append(body,
				kernel.Instr{Op: kernel.ILoadValid, Dst: ok, A: kernel.RegIdx, Buf: in, Seq: true},
				kernel.Instr{Op: kernel.IGuard, A: ok})
		}
		off, i, t, u := reg(), reg(), freg(), freg()
		body = append(body,
			kernel.Instr{Op: kernel.IConstI, Dst: off, Imm: int64(ch.off)},
			kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: i, A: g, B: off},
			kernel.Instr{Op: kernel.ILoadLoc, Dst: t, A: i, Float: true},
			kernel.Instr{Op: kernel.IBin, BOp: ch.op, Dst: u, A: t, B: fv, Float: true},
			kernel.Instr{Op: kernel.IStoreLoc, A: i, B: u, Float: true})
	}
	w, at, x := reg(), reg(), freg()
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "reduce", Extent: extent, Intent: intent, N: n,
		Locals: locals, LocalsFloat: true, LocalsInit: 0.5,
		Prov:  kernel.Prov{Kind: "group-fold", Virtual: true},
		Loops: []kernel.Loop{{Body: body}},
		PostLoopBody: []kernel.Instr{
			{Op: kernel.IConstI, Dst: w, Imm: int64(locals)},
			{Op: kernel.IBin, BOp: kernel.BMul, Dst: at, A: kernel.RegGID, B: w},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: at, A: at, B: kernel.RegJ},
			{Op: kernel.ILoadLoc, Dst: x, A: kernel.RegJ, Float: true},
			{Op: kernel.IStore, A: at, B: x, Buf: out, Seq: true, Float: true},
		},
	})
	return k
}

func seqInts(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i*7%113 - 19)
	}
	return v
}

// runSpec executes k's single fragment with par on fresh output buffers,
// recorded but not counted — what a traced run asks of the executor — and
// returns the environment and the record.
func runSpec(t *testing.T, k *kernel.Kernel, in map[string]*Buffer, par Par) (*Env, FragStats) {
	t.Helper()
	env := newEnv(k)
	for name, buf := range in {
		if err := env.bind(k, name, buf); err != nil {
			t.Fatal(err)
		}
	}
	var fs FragStats
	if err := RunFragment(context.Background(), k.Frags[0], env, par, &fs, false); err != nil {
		t.Fatal(err)
	}
	return env, fs
}

// requireSameBufs asserts every non-input buffer (values and validity) is
// bit-identical between the two environments.
func requireSameBufs(t *testing.T, k *kernel.Kernel, want, got *Env, label string) {
	t.Helper()
	for bi, d := range k.Bufs {
		if d.Input {
			continue
		}
		w, g := want.Bufs[bi], got.Bufs[bi]
		for i := 0; i < w.Len(); i++ {
			if d.Kind == vector.Int && w.I[i] != g.I[i] {
				t.Fatalf("%s: buf %q[%d] = %d, want %d", label, d.Name, i, g.I[i], w.I[i])
			}
			if d.Kind == vector.Float {
				// Compare bit patterns so NaNs and signed zeros count.
				if math.Float64bits(w.F[i]) != math.Float64bits(g.F[i]) {
					t.Fatalf("%s: buf %q[%d] = %v, want %v", label, d.Name, i, g.F[i], w.F[i])
				}
			}
			wv := w.Valid == nil || w.Valid[i]
			gv := g.Valid == nil || g.Valid[i]
			if wv != gv {
				t.Fatalf("%s: buf %q[%d] valid = %v, want %v", label, d.Name, i, gv, wv)
			}
		}
	}
}

// requireRefused runs k's single fragment under every path a caller can
// ask for — default, NoSpecialize and counted — and requires each to refuse
// it with a *ContractError carrying want, the verifier's diagnostic, before
// writing a single slot of any buffer.
func requireRefused(t *testing.T, k *kernel.Kernel, in map[string]*Buffer, want verify.Diagnostic) {
	t.Helper()
	untouched := newEnv(k)
	for _, run := range []struct {
		name  string
		par   Par
		count bool
	}{
		{"default", Par{Workers: 3}, false},
		{"no-specialize", Par{Workers: 3, NoSpecialize: true}, false},
		{"counted", Par{Workers: 1}, true},
	} {
		env := newEnv(k)
		for name, buf := range in {
			if err := env.bind(k, name, buf); err != nil {
				t.Fatal(err)
			}
		}
		var fs FragStats
		err := RunFragment(context.Background(), k.Frags[0], env, run.par, &fs, run.count)
		var ce *ContractError
		if !errors.As(err, &ce) || ce.Diag != want {
			t.Fatalf("%s run: error %v, want the refusal %v\n%s", run.name, err, want, k)
		}
		requireSameBufs(t, k, untouched, env, run.name+" run of a refused fragment")
	}
}

// TestEveryInstructionHasAPrimitive: every opcode the fragment contract
// admits compiles to a batch primitive in either domain and under every
// operator — and so does a reduction — so a fragment that meets the contract
// always batches.
func TestEveryInstructionHasAPrimitive(t *testing.T) {
	for op := kernel.IConstI; op <= kernel.IStoreLoc; op++ {
		for _, flt := range []bool{false, true} {
			for bop := kernel.BAdd; bop <= kernel.BMax; bop++ {
				in := &kernel.Instr{Op: op, BOp: bop, Float: flt}
				if primFor(in) == nil {
					t.Errorf("no batch primitive for %v (float=%v, %v)", op, flt, bop)
				}
				if op == kernel.IBin && foldFor(in) == nil {
					t.Errorf("no reduction primitive for %v (float=%v, %v)", op, flt, bop)
				}
			}
		}
	}
}

// TestSpecializeModesBitIdentical is the in-package half of difftest
// combo #7: for every representative fragment shape, the batch program in
// tiles at every morsel size × worker count, and in element order, produces
// buffers bit-identical to the oracle's (oracle_test.go), and the record of
// the run reports the oracle's Items and StoreBytes. A counted run — element
// order with the device counters — reports every counter the oracle counts.
func TestSpecializeModesBitIdentical(t *testing.T) {
	n := 3000 // spans multiple 1024-lane batches with a ragged tail
	withValid := &Buffer{Kind: vector.Int, I: seqInts(n), Valid: make([]bool, n)}
	for i := range withValid.Valid {
		withValid.Valid[i] = i%3 != 0
	}
	floats := make([]float64, n)
	for i := range floats {
		floats[i] = float64(i) * 0.25
	}
	floats[17] = math.NaN()
	idx := make([]int64, n)
	for i := range idx {
		idx[i] = int64((i * 379) % n)
	}
	// Six runs of 50 with five qualifying elements each, nine in the last:
	// once the other lanes have left loop 1 its tiles have a single active
	// pseudo-lane per row, in rows past the first.
	lopsided := make([]int64, 300)
	for g := 0; g < 6; g++ {
		for i := 0; i < 5+4*(g/5); i++ {
			lopsided[g*50+i] = 100 + int64(i)
		}
	}
	cases := []specKernel{
		{"select", func() *kernel.Kernel { return selectKernel(n, 40) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch", ""},
		{"select-masked", func() *kernel.Kernel {
			k := selectKernel(n, 40)
			k.Bufs[1].Valid = true // stores also write a validity byte
			return k
		}, map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch", ""},
		{"map-float", func() *kernel.Kernel { return mapFloatKernel(n) },
			map[string]*Buffer{"in": {Kind: vector.Float, F: floats}}, "batch", ""},
		{"fold-sum-blocked", func() *kernel.Kernel { return foldKernel(n, 7, kernel.BAdd, false) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch", ""},
		{"fold-min-strided", func() *kernel.Kernel { return foldKernel(n, 4, kernel.BMin, true) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch", ""},
		// One to three work items of a long Intent: tiles batch along
		// iterations, and the accumulator folds once per tile.
		{"fold-extent-1", func() *kernel.Kernel { return foldKernel(n, 1, kernel.BAdd, false) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch", ""},
		{"fold-3-strided", func() *kernel.Kernel { return foldKernel(n, 3, kernel.BMax, true) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch", ""},
		{"filter-2-branching", func() *kernel.Kernel { return filterKernel(n, 2, 40, false) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch", ""},
		{"redefined-after-carried-read", func() *kernel.Kernel { return redefKernel(n, 3, 40) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch", ""},
		{"two-chains-free-guard", func() *kernel.Kernel { return twoChainKernel(n, 3, 5) },
			map[string]*Buffer{"in": withValid}, "batch", ""},
		{"carried-guard", func() *kernel.Kernel { return firstFewKernel(n, 2, 7) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch", ""},
		// Loop 1's dynamic bound — a few dozen qualifying positions per work
		// item — is far shorter than the 341 iterations a 3-lane tile holds.
		{"bound-shorter-than-tile", func() *kernel.Kernel { return filterFoldKernel(n, 3, 1000, 85) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch", ""},
		{"bound-one-lane-outlasts", func() *kernel.Kernel { return filterFoldKernel(300, 6, 50, 40) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: lopsided}}, "batch", ""},
		{"fold-ragged", func() *kernel.Kernel {
			// 64 × 59 overshoots n by 13 whole work items: they run no
			// iteration but still seed and store their partial.
			k := foldKernel(n, 64, kernel.BAdd, false)
			k.Frags[0].Intent = 59
			return k
		}, map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch", ""},
		{"filter-branching", func() *kernel.Kernel { return filterKernel(n, 51, 40, false) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch", ""},
		{"filter-predicated", func() *kernel.Kernel { return filterKernel(n, 51, 40, true) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch", ""},
		{"filter-fold-two-loop", func() *kernel.Kernel { return filterFoldKernel(n, 64, 59, 40) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch", ""},
		{"group-fold-locals", func() *kernel.Kernel { return groupFoldKernel(n, 13, 5) },
			map[string]*Buffer{"in": withValid}, "batch", ""},
		// Scratch reductions: disjoint ones run a tile at a time, ones whose
		// slots meet fall back to the carried pass; a guard between chains
		// gives the later ones a narrower selection; 7 × 429 leaves the last
		// work item's last tile row partial.
		{"chains-disjoint", func() *kernel.Kernel {
			return reduceKernel(n, 3, 5, []chainSpec{{0, kernel.BAdd}, {5, kernel.BMax}, {10, kernel.BSub}}, -1)
		}, map[string]*Buffer{"in": withValid}, "batch", "wide"},
		{"chains-aliasing", func() *kernel.Kernel {
			return reduceKernel(n, 3, 5, []chainSpec{{0, kernel.BAdd}, {2, kernel.BMul}}, -1)
		}, map[string]*Buffer{"in": withValid}, "batch", "fallback"},
		{"chains-guard-between", func() *kernel.Kernel {
			return reduceKernel(n, 3, 5, []chainSpec{{0, kernel.BAdd}, {5, kernel.BMin}, {10, kernel.BAdd}}, 1)
		}, map[string]*Buffer{"in": withValid}, "batch", "wide"},
		{"chains-partial-row", func() *kernel.Kernel {
			return reduceKernel(n, 7, 4, []chainSpec{{0, kernel.BAdd}, {4, kernel.BMul}}, 1)
		}, map[string]*Buffer{"in": withValid}, "batch", "wide"},
		{"chains-x-from-prologue", func() *kernel.Kernel {
			// Chain 0 folds in a register the prologue defines and nothing
			// free reads: its tile-wide primitive needs it in every row.
			k := reduceKernel(n, 3, 5, []chainSpec{{0, kernel.BAdd}, {5, kernel.BMax}}, -1)
			f, x := k.Frags[0], kernel.FirstFree+20
			f.Pre = []kernel.Instr{{Op: kernel.ICastIF, Dst: x, A: kernel.RegGID}}
			f.Loops[0].Body[7].B = x
			return k
		}, map[string]*Buffer{"in": withValid}, "batch", "wide"},
		{"mat-independent", func() *kernel.Kernel {
			// The map over 200 × 15 blocked work items: nothing carried, so
			// its tiles take the 3000 elements in element order.
			k := mapFloatKernel(n)
			k.Frags[0].Extent, k.Frags[0].Intent = 200, 15
			return k
		}, map[string]*Buffer{"in": {Kind: vector.Float, F: floats}}, "batch", ""},
		{"gather", func() *kernel.Kernel { return gatherKernel(n) },
			map[string]*Buffer{"idx": {Kind: vector.Int, I: idx}, "in": {Kind: vector.Int, I: seqInts(n)}}, "batch", ""},
		{"mixed", func() *kernel.Kernel { return mixedKernel(n) },
			map[string]*Buffer{"in": withValid}, "batch", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := tc.build()
			oracle, want, err := runOracle(t, k, tc.in)
			if err != nil || want.Items == 0 || want.StoreBytes == 0 {
				t.Fatalf("oracle record = %+v, error %v; want a non-empty record", want, err)
			}
			runs := []Par{{Workers: 1, NoSpecialize: true}}
			for _, morsel := range []int{1, 7, 0} {
				for _, workers := range []int{1, 4} {
					runs = append(runs, Par{Workers: workers, Morsel: morsel})
				}
			}
			for _, par := range runs {
				got, rec := runSpec(t, k, tc.in, par)
				requireSameBufs(t, k, oracle, got, fmt.Sprintf("%s %+v", tc.name, par))
				path, wantAcc := tc.path, tc.acc
				if par.NoSpecialize {
					path, wantAcc = "interp", ""
				}
				if rec.Specialized != path || (rec.TileLanes > 0) != (path == "batch") {
					t.Errorf("%+v: recorded run took %q with tile %dx%d, want %q", par, rec.Specialized, rec.TileLanes, rec.TileIters, path)
				}
				if rec.Items != want.Items || rec.StoreBytes != want.StoreBytes {
					t.Errorf("%+v (%s): items=%d store_bytes=%d, oracle reports %d / %d",
						par, rec.Specialized, rec.Items, rec.StoreBytes, want.Items, want.StoreBytes)
				}
				if rec.IntOps != 0 || rec.SeqBytes != 0 || rec.Guards != 0 {
					t.Errorf("%+v: an uncounted run collected device counters: %+v", par, rec)
				}
				var acc string
				switch {
				case rec.AccCarried > 0:
					acc = "fallback"
				case rec.AccWide > 0:
					acc = "wide"
				}
				if acc != wantAcc {
					t.Errorf("%+v: scratch reductions ran %d tiles wide, %d carried; want %q",
						par, rec.AccWide, rec.AccCarried, wantAcc)
				}
			}
			env := newEnv(k)
			for name, buf := range tc.in {
				if err := env.bind(k, name, buf); err != nil {
					t.Fatal(err)
				}
			}
			var rec FragStats
			if err := RunFragment(context.Background(), k.Frags[0], env, Par{Workers: 4}, &rec, true); err != nil {
				t.Fatal(err)
			}
			requireSameBufs(t, k, oracle, env, tc.name+" counted")
			if d := sameCounts(want, rec); d != "" {
				t.Errorf("counted run: %s", d)
			}
		})
	}
}

// TestResolveSpecGeometry pins the path rule: every run executes the
// fragment's batch program, in tiles by default; NoSpecialize and a request
// for the device counters each make it element order, and nothing else
// does. Every resolution moves its path's counter, and a run records its
// geometry: "batch" with the first tile's shape, or "interp" with none.
func TestResolveSpecGeometry(t *testing.T) {
	const n = 64
	for _, tc := range []struct {
		name         string
		k            func() *kernel.Kernel
		noSpecialize bool
		count        bool
		elem         bool
	}{
		{"select", func() *kernel.Kernel { return selectKernel(n, 10) }, false, false, false},
		{"select-off", func() *kernel.Kernel { return selectKernel(n, 10) }, true, false, true},
		{"select-counted", func() *kernel.Kernel { return selectKernel(n, 10) }, false, true, true},
		{"gather", func() *kernel.Kernel { return gatherKernel(n) }, false, false, false},
		{"gather-counted", func() *kernel.Kernel { return gatherKernel(n) }, false, true, true},
		{"fold", func() *kernel.Kernel { return foldKernel(n, 4, kernel.BAdd, false) }, false, false, false},
		{"fold-counted", func() *kernel.Kernel { return foldKernel(n, 4, kernel.BAdd, false) }, false, true, true},
		{"fold-extent-1", func() *kernel.Kernel { return foldKernel(n, 1, kernel.BAdd, false) }, false, false, false},
	} {
		path, label := specBatchC, "batch"
		if tc.elem {
			path, label = specInterpC, "interp"
		}
		before := path.Value()
		if elem := resolveSpec(tc.noSpecialize, tc.count); elem != tc.elem {
			t.Errorf("%s: element order %v, want %v", tc.name, elem, tc.elem)
		}
		if path.Value() != before+1 {
			t.Errorf("%s: voodoo_fragments_specialized_total for its path did not move", tc.name)
		}
		k, vals := tc.k(), make([]int64, n)
		for i := range vals {
			vals[i] = int64(i * 37 % n) // in range: the gather reads through it
		}
		env := newEnv(k)
		for _, d := range k.Bufs {
			if d.Input {
				if err := env.bind(k, d.Name, &Buffer{Kind: d.Kind, I: vals}); err != nil {
					t.Fatal(err)
				}
			}
		}
		var fs FragStats
		if err := RunFragment(context.Background(), k.Frags[0], env, Par{Workers: 1, NoSpecialize: tc.noSpecialize}, &fs, tc.count); err != nil {
			t.Fatal(err)
		}
		if fs.Specialized != label || (fs.TileLanes > 0) == tc.elem {
			t.Errorf("%s: ran %q with tile %dx%d, want %q (a tile only in tiles)", tc.name, fs.Specialized, fs.TileLanes, fs.TileIters, label)
		}
	}
}

// TestFaultHooksKeepTheBatchTier: installing every fault-injection hook
// changes neither the path an eligible fragment takes nor its answer. The
// batch tier's checkpoint calls Item with the first work item of the tile
// it is about to run; with ranges of checkInterval single-iteration work
// items that is the first work item of every range, on one worker or three.
// A panic in Item surfaces as a *PanicError naming the fragment.
func TestFaultHooksKeepTheBatchTier(t *testing.T) {
	const n = 8 * checkInterval
	in := map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}
	want, _ := runSpec(t, busyKernel(n, 1), in, Par{Workers: 1})

	var (
		mu                     sync.Mutex
		seen                   map[int]bool
		allocs, starts, claims atomic.Int64
		panicking              atomic.Bool
	)
	faultinject.With(t, faultinject.Hooks{
		Alloc:         func(int64) error { allocs.Add(1); return nil },
		FragmentStart: func(string) { starts.Add(1) },
		Item: func(frag string, gid int) {
			if panicking.Load() {
				panic("injected in " + frag)
			}
			mu.Lock()
			seen[gid] = true
			mu.Unlock()
		},
		MorselClaim: func(string, int) { claims.Add(1) },
	})
	for _, workers := range []int{1, 3} {
		seen = map[int]bool{}
		allocs.Store(0)
		starts.Store(0)
		claims.Store(0)
		k := busyKernel(n, 1)
		got, fs := runSpec(t, k, in, Par{Workers: workers, Morsel: checkInterval})
		if fs.Specialized != "batch" {
			t.Errorf("workers=%d: hooked run took %q, want batch", workers, fs.Specialized)
		}
		requireSameBufs(t, k, want, got, "hooked run")
		for lo := 0; lo < n; lo += checkInterval {
			if !seen[lo] {
				t.Errorf("workers=%d: Item never saw work item %d, the first of its range (saw %v)", workers, lo, seen)
			}
		}
		if allocs.Load() == 0 || starts.Load() != 1 || (claims.Load() > 0) != (workers > 1) {
			t.Errorf("workers=%d: %d allocations, %d fragment starts, %d morsel claims hooked",
				workers, allocs.Load(), starts.Load(), claims.Load())
		}

		panicking.Store(true)
		env := newEnv(k)
		if err := env.bind(k, "in", in["in"]); err != nil {
			t.Fatal(err)
		}
		err := RunFragment(context.Background(), k.Frags[0], env, Par{Workers: workers, Morsel: checkInterval}, &fs, false)
		panicking.Store(false)
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Fragment != k.Frags[0].Name || fs.Specialized != "batch" {
			t.Errorf("workers=%d: panic in Item on the %s tier returned %v (%T), want a *PanicError in %s",
				workers, fs.Specialized, err, err, k.Frags[0].Name)
		}
	}
}

// TestSpecializeBatchEligibility pins what verify.BatchFacts decides. The
// fragment contract, now that a tile cuts work items × iterations either way
// and workers cut the work items: a register read no definition of the same
// work item dominates breaks VF001, a buffer both loaded and stored VF010,
// and RunFragment refuses either on every path with the verifier's
// diagnostic before a slot is written. And the tiling facts of a fragment's
// first loop, one letter per instruction (f free, c carried, r reduce):
// which instructions see the previous iteration is a dataflow fact, and each
// row below is one rule of it.
func TestSpecializeBatchEligibility(t *testing.T) {
	sel := func() *kernel.Kernel { return selectKernel(64, 10) }
	fold := func() *kernel.Kernel { return foldKernel(64, 8, kernel.BAdd, false) }
	for _, tc := range []struct {
		name   string
		k      *kernel.Kernel
		mutate func(f *kernel.Fragment)
		rule   string // the contract rule broken; "" = none
		tiling string // classes of loop 0; "" = not checked
	}{
		// Nothing carried: const, load, compare, guard, store.
		{"select", sel(), nil, "", "fffff"},
		// The reduction mark: the accumulator is read and written by one
		// instruction only.
		{"fold", fold(), nil, "", "fr"},
		{"fold-one-work-item", foldKernel(64, 1, kernel.BAdd, false), nil, "", "fr"},
		{"accumulator-read-twice", fold(), func(f *kernel.Fragment) {
			// acc = acc + acc: every iteration needs the last one's value.
			f.Loops[0].Body[1].B = f.Loops[0].Body[1].Dst
		}, "", "fc"},
		// The carried set: the cursor (defined before the loop and in it),
		// the position computed from it — both of its definitions — and the
		// store through it; the guard is free, the constant after it is not
		// control-dependent on anything carried.
		{"filter-branching", filterKernel(640, 8, 10, false), nil, "", "ffffccfcfc"},
		{"filter-predicated", filterKernel(640, 8, 10, true), nil, "", "ffffcccc"},
		// A free register a carried instruction reads — the value the filter
		// packs — has two definitions in the body: both join the carried
		// slice, and with them the predicate computed from the first and the
		// store of the second.
		{"free-register-redefined", redefKernel(640, 8, 10), nil, "", "fccfcccccc"},
		// Scratch chains are carried, and so is everything behind a guard
		// that is — here even the store of a free value.
		{"carried-guard", firstFewKernel(640, 8, 5), nil, "", "fffcfccccccc"},
		{"filter-fold", filterFoldKernel(640, 8, 80, 10), nil, "", "fffcc"},
		{"group-fold", groupFoldKernel(640, 8, 5), nil, "", "ffffffccc"},
		{"two-stores-one-buffer", mixedKernel(64), func(f *kernel.Fragment) {
			// Iterations of a work item may hit the same slot through either
			// store: they keep the interpreter's order.
			f.Loops[0].Body[11].Buf = f.Loops[0].Body[9].Buf
		}, "", "fffffffffcfc"},
		{"never-defined", sel(), func(f *kernel.Fragment) {
			// The interpreter would observe a sibling item's leftover.
			f.Loops[0].Body[2].A = kernel.FirstFree + 9
		}, verify.RuleUseBeforeDef, ""},
		{"read-before-body-def", sel(), func(f *kernel.Fragment) {
			// The compare now precedes the definitions it reads: a later
			// iteration sees the previous one's values, the first a
			// sibling work item's.
			f.Loops[0].Body[0], f.Loops[0].Body[2] = f.Loops[0].Body[2], f.Loops[0].Body[0]
		}, verify.RuleUseBeforeDef, ""},
		{"accumulator-without-seed", fold(), func(f *kernel.Fragment) {
			// Defined in the loop only: its first read sees the previous
			// work item's total.
			f.Pre = nil
		}, verify.RuleUseBeforeDef, ""},
		{"post-reads-loop-def", fold(), func(f *kernel.Fragment) {
			// The loop may run zero times, so its definitions do not reach
			// the epilogue.
			f.Post[0].B = kernel.FirstFree + 1
		}, verify.RuleUseBeforeDef, ""},
		{"post-reads-idx", fold(), func(f *kernel.Fragment) {
			f.Post[0].A = kernel.RegIdx
		}, verify.RuleUseBeforeDef, ""},
		{"def-behind-guard", fold(), func(f *kernel.Fragment) {
			// A guard ahead of the seed may skip it.
			f.Pre = append([]kernel.Instr{{Op: kernel.IGuard, A: kernel.RegGID}}, f.Pre...)
		}, verify.RuleUseBeforeDef, ""},
		{"bound-from-loop", filterFoldKernel(640, 8, 80, 10), func(f *kernel.Fragment) {
			f.Pre = f.Pre[:1] // the cursor is no longer seeded before loop 1 reads it as its bound
		}, verify.RuleUseBeforeDef, ""},
		{"load-store-overlap", sel(), func(f *kernel.Fragment) {
			// Store to the buffer the fragment also loads: tiles and workers
			// run ahead of element order, so a load could see a store too
			// early.
			f.Loops[0].Body[4].Buf = f.Loops[0].Body[1].Buf
		}, verify.RuleRWOverlap, ""},
	} {
		f := tc.k.Frags[0]
		if tc.mutate != nil {
			tc.mutate(f)
		}
		facts := verify.BatchFacts(f)
		if tc.rule != "" {
			if facts.Violation == nil || facts.Violation.Rule != tc.rule {
				t.Errorf("%s: violation %v, want rule %s", tc.name, facts.Violation, tc.rule)
				continue
			}
			if diags := verify.Fragment(f, tc.k.Bufs); !slices.Contains(diags, *facts.Violation) {
				t.Errorf("%s: verify.Fragment reports %v, not the contract violation %v", tc.name, diags, *facts.Violation)
			}
			requireRefused(t, tc.k, inputsFor(tc.k), *facts.Violation)
			continue
		}
		if facts.Violation != nil {
			t.Errorf("%s: breaks the contract: %v", tc.name, facts.Violation)
			continue
		}
		got := ""
		for _, c := range facts.Loops[0].Class {
			got += string("fcr"[c])
		}
		if got != tc.tiling {
			t.Errorf("%s: loop 0 tiles as %q, want %q\n%s", tc.name, got, tc.tiling, tc.k)
		}
	}
}

// inputsFor binds seqInts (or zeros, for a float column) to every input
// buffer k declares.
func inputsFor(k *kernel.Kernel) map[string]*Buffer {
	in := map[string]*Buffer{}
	for _, d := range k.Bufs {
		switch {
		case !d.Input:
		case d.Kind == vector.Int:
			in[d.Name] = &Buffer{Kind: vector.Int, I: seqInts(d.Size)}
		default:
			in[d.Name] = &Buffer{Kind: vector.Float, F: make([]float64, d.Size)}
		}
	}
	return in
}

// TestScratchReductionFacts pins which loop bodies verify.BatchFacts reports
// as scratch reductions (LoopFacts.Chains): accepted shapes, and the
// rejected ones, each for its own reason — whatever else a body carries, a
// rejected one keeps the carried pass. The base is reduceKernel's two chains
// (body: load, const, mod, cast, then const, add, load-loc, op, store-loc per
// chain; integer registers v=4 g=6, chain 0's i=8 and t, u = f5, f6, chain
// 1's t, u = f7, f8, the element as float f4).
func TestScratchReductionFacts(t *testing.T) {
	base := func() *kernel.Fragment {
		return reduceKernel(64, 8, 4, []chainSpec{{0, kernel.BAdd}, {4, kernel.BMax}}, -1).Frags[0]
	}
	const f4, f5, f8 = kernel.FirstFree, kernel.FirstFree + 1, kernel.FirstFree + 4
	const g, i0, spare = kernel.FirstFree + 2, kernel.FirstFree + 4, kernel.FirstFree + 20
	insert := func(f *kernel.Fragment, at int, ins ...kernel.Instr) {
		body := f.Loops[0].Body
		f.Loops[0].Body = append(append(append([]kernel.Instr{}, body[:at]...), ins...), body[at:]...)
	}
	for _, tc := range []struct {
		name   string
		f      *kernel.Fragment
		mutate func(f *kernel.Fragment)
		chains []verify.Chain // nil: rejected
	}{
		{"two-disjoint", base(), nil, []verify.Chain{{Load: 6, Op: 7, Store: 8}, {Load: 11, Op: 12, Store: 13}}},
		{"guard-between", reduceKernel(64, 8, 4, []chainSpec{{0, kernel.BAdd}, {4, kernel.BSub}}, 1).Frags[0], nil,
			[]verify.Chain{{Load: 6, Op: 7, Store: 8}, {Load: 13, Op: 14, Store: 15}}},
		// Whether the chains' slots meet is the executor's per-tile check,
		// not a fact: aliasing chains are chains.
		{"aliasing", reduceKernel(64, 8, 4, []chainSpec{{0, kernel.BAdd}, {1, kernel.BMul}}, -1).Frags[0], nil,
			[]verify.Chain{{Load: 6, Op: 7, Store: 8}, {Load: 11, Op: 12, Store: 13}}},
		{"t-read-twice", base(), func(f *kernel.Fragment) {
			f.Loops[0].Body[12].B = f5 // chain 1 folds in chain 0's t
		}, nil},
		{"first-seen-select", base(), func(f *kernel.Fragment) {
			// The min/max idiom: take the value when the slot's count, chain
			// 0's t, is still 0 — u is defined twice and t read twice.
			insert(f, 13,
				kernel.Instr{Op: kernel.ICastFI, Dst: spare, A: f5},
				kernel.Instr{Op: kernel.ISel, Dst: f8, A: spare, B: f8, C: f4, Float: true})
		}, nil},
		{"op-div", base(), func(f *kernel.Fragment) { f.Loops[0].Body[7].BOp = kernel.BDiv }, nil},
		{"i-redefined", base(), func(f *kernel.Fragment) {
			insert(f, 7, kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: i0, A: i0, B: g})
		}, nil},
		{"extra-scratch-load", base(), func(f *kernel.Fragment) {
			insert(f, 14, kernel.Instr{Op: kernel.ILoadLoc, Dst: spare, A: g, Float: true})
		}, nil},
		{"extra-scratch-store", base(), func(f *kernel.Fragment) {
			insert(f, 14, kernel.Instr{Op: kernel.IStoreLoc, A: g, B: f4, Float: true})
		}, nil},
		{"behind-carried-guard", base(), func(f *kernel.Fragment) {
			// A counter live across iterations, read twice: its update and
			// the guard on it are carried, and chain 1 sits behind the guard.
			f.Pre = []kernel.Instr{{Op: kernel.IConstI, Dst: spare, Imm: 1}}
			insert(f, 9,
				kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: spare, A: spare, B: g},
				kernel.Instr{Op: kernel.IGuard, A: spare})
		}, nil},
	} {
		if tc.mutate != nil {
			tc.mutate(tc.f)
		}
		facts := verify.BatchFacts(tc.f)
		if facts.Violation != nil {
			t.Errorf("%s: breaks the contract: %v", tc.name, facts.Violation)
			continue
		}
		if got := facts.Loops[0].Chains; !slices.Equal(got, tc.chains) {
			t.Errorf("%s: chains %v, want %v\n%s", tc.name, got, tc.chains, (&kernel.Kernel{Frags: []*kernel.Fragment{tc.f}}).String())
		}
	}
}

// TestSpecializeCacheOnFragment: the compiled program is cached on the
// fragment after first use and reused verbatim.
func TestSpecializeCacheOnFragment(t *testing.T) {
	f := selectKernel(64, 10).Frags[0]
	if f.LoadSpec() != nil {
		t.Fatal("fresh fragment should have no cached spec")
	}
	sp1 := specFor(f)
	sp2 := specFor(f)
	if sp1 != sp2 {
		t.Error("specFor should return the cached program on reuse")
	}
	if f.LoadSpec() == nil {
		t.Error("spec not stored on the fragment")
	}
	if sp1.refused != nil {
		t.Error("canonical selection should compile to batch primitives")
	}
}

// countingCtx counts the checkpoints a run makes: every one asks Err. With
// cancelAt > 0 the cancelAt-th of them, and all after it, find the context
// cancelled.
type countingCtx struct {
	context.Context
	checks   atomic.Int64
	cancelAt int64
}

func (c *countingCtx) Err() error {
	if n := c.checks.Add(1); c.cancelAt > 0 && n >= c.cancelAt {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestSpecializeCancellation: the batch path honors cancellation at the
// interpreter's cadence — an already-cancelled run stops before any work,
// single-step and multi-iteration fragments alike; a running one reaches a
// checkpoint at least every checkInterval lane-steps, whether its tiles are
// a thousand work items of one iteration or one work item of a thousand
// iterations; and a run cancelled mid-fragment starts no further tile.
func TestSpecializeCancellation(t *testing.T) {
	n := 1 << 16
	in := &Buffer{Kind: vector.Int, I: seqInts(n)}
	long := 1 << 21
	for name, k := range map[string]*kernel.Kernel{
		"select":          selectKernel(n, 40),
		"fold":            foldKernel(n, 1013, kernel.BAdd, false),
		"filter-fold":     filterFoldKernel(n, 1111, 59, 40),
		"group-fold":      groupFoldKernel(n, 64, 189),
		"fold-1x2M":       foldKernel(long, 1, kernel.BAdd, false),
		"group-fold-3":    groupFoldKernel(n, 3, 189),
		"two-chains-of-3": twoChainKernel(n, 3, 5),
	} {
		env := newEnv(k)
		bound := in
		if k.Bufs[0].Size == long {
			bound = &Buffer{Kind: vector.Int, I: seqInts(long)}
		}
		if err := env.bind(k, "in", bound); err != nil {
			t.Fatal(err)
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if err := runFrags(cancelled, k, env, Par{Workers: 2}, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}

		live, stop := context.WithCancel(context.Background())
		ctx := &countingCtx{Context: live}
		var fs FragStats
		if err := RunFragment(ctx, k.Frags[0], env, Par{Workers: 1}, &fs, false); err != nil {
			t.Fatal(err)
		}
		if fs.Specialized != "batch" {
			t.Fatalf("%s ran %s, want batch", name, fs.Specialized)
		}
		total := ctx.checks.Load()
		if want := fs.Items / checkInterval; total < want {
			t.Errorf("%s: %d checkpoints over %d lane-steps, want one at least every %d (%d)",
				name, total, fs.Items, checkInterval, want)
		}

		// Cancelled at the checkpoint halfway through: that check is the
		// last thing the run does — every tile begins with one.
		mid := &countingCtx{Context: live, cancelAt: total / 2}
		if err := RunFragment(mid, k.Frags[0], env, Par{Workers: 1}, nil, false); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled mid-fragment: err = %v, want context.Canceled", name, err)
		}
		if got := mid.checks.Load(); got != mid.cancelAt {
			t.Errorf("%s: %d checkpoints after cancellation at the %d-th: a tile started on a cancelled run", name, got-mid.cancelAt, mid.cancelAt)
		}
		stop()
	}
}

// TestTiledScratchSlabIsPerWorkItem: the iterations a tile batches share
// their work item's scratch array, so a grouped fold over three work items
// keeps a slab of Locals × 3 slots however many iterations a tile holds —
// TPC-H Q20's 7 × 40005 must not become 1024 × 40005.
func TestTiledScratchSlabIsPerWorkItem(t *testing.T) {
	const n, extent, groups = 1 << 14, 3, 4001
	k := groupFoldKernel(n, extent, groups)
	env := newEnv(k)
	if err := env.bind(k, "in", &Buffer{Kind: vector.Int, I: seqInts(n)}); err != nil {
		t.Fatal(err)
	}
	f := k.Frags[0]
	bp := specFor(f)
	w := newWorker(context.Background(), f, env, bp, false, false, nil)
	defer w.release()
	w.scratch.blocF = nil // whatever an earlier fragment left in the pooled scratch
	if err := w.run(0, extent); err != nil {
		t.Fatal(err)
	}
	if w.stats.TileLanes != extent || w.stats.TileIters < 100 {
		t.Fatalf("tile = %dx%d, want %d work items by hundreds of iterations", w.stats.TileLanes, w.stats.TileIters, extent)
	}
	if got, want := cap(w.scratch.blocF), groups*extent; got != want {
		t.Errorf("scratch slab holds %d slots, want Locals × work items = %d", got, want)
	}
}

// TestSpecializeErrorParity: a mid-run fault reports the same error in
// tiles and in element order as from the oracle (oracle_test.go), text
// included — also when the tiles reach a different fault first. In the
// multi-iteration case element 5 (work item 0, iteration 5) and element 17
// (work item 2, iteration 1) both gather out of range: the oracle,
// element-major, dies on element 5; the lanes, step-major, get to element 17
// four steps earlier. In the tiled case — one work item, 4096 iterations —
// the free slice of the first tile gathers out of range at iteration 900
// before its carried slice has run at all, where iteration 5 divides by
// zero: the oracle's error is the division.
func TestSpecializeErrorParity(t *testing.T) {
	gather := func(extent, intent int) *kernel.Kernel {
		n := extent * intent
		k := &kernel.Kernel{}
		off := k.AddBuf(kernel.BufDecl{Name: "off", Kind: vector.Int, Size: n, Input: true})
		in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
		out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: extent})
		acc, ro, ri, r0, q, d := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2, kernel.FirstFree+3, kernel.FirstFree+4, kernel.FirstFree+5
		k.Frags = append(k.Frags, &kernel.Fragment{
			Name: "oob", Extent: extent, Intent: intent, N: n,
			Pre: []kernel.Instr{{Op: kernel.IConstI, Dst: acc, Imm: 0}, {Op: kernel.IConstI, Dst: q, Imm: 1 << 40}},
			Loops: []kernel.Loop{{Body: []kernel.Instr{
				{Op: kernel.ILoad, Dst: ro, A: kernel.RegIdx, Buf: off, Seq: true},
				{Op: kernel.IBin, BOp: kernel.BAdd, Dst: ri, A: kernel.RegIdx, B: ro},
				{Op: kernel.ILoad, Dst: r0, A: ri, Buf: in},
				{Op: kernel.IBin, BOp: kernel.BAdd, Dst: acc, A: acc, B: r0},
				// A carried division: q = max(q, q / in[idx]) reads q twice,
				// so it is no reduction.
				{Op: kernel.ILoad, Dst: d, A: kernel.RegIdx, Buf: in, Seq: true},
				{Op: kernel.IBin, BOp: kernel.BDiv, Dst: d, A: q, B: d},
				{Op: kernel.IBin, BOp: kernel.BMax, Dst: q, A: q, B: d},
			}}},
			Post: []kernel.Instr{{Op: kernel.IStore, A: kernel.RegGID, B: acc, Buf: out, Seq: true}},
		})
		return k
	}
	for _, tc := range []struct {
		name           string
		extent, intent int
		faults         map[int]int64 // element → offset added to its gather index
		zero           int           // element whose divisor is zero, or -1
		want           string
	}{
		{"one-step", 100, 1, map[int]int64{40: 60, 70: 900}, -1, "idx 100 len 100"},
		{"lane-order-differs", 4, 8, map[int]int64{5: 1000, 17: 2000}, -1, "idx 1005 len 32"},
		{"free-slice-faults-first", 1, 4096, map[int]int64{900: 5000}, 5, "integer division by zero"},
	} {
		k := gather(tc.extent, tc.intent)
		n := tc.extent * tc.intent
		off, data := make([]int64, n), make([]int64, n)
		for e, o := range tc.faults {
			off[e] = o
		}
		for i := range data {
			data[i] = int64(i%7) + 1
		}
		if tc.zero >= 0 {
			data[tc.zero] = 0
		}
		in := map[string]*Buffer{"off": {Kind: vector.Int, I: off}, "in": {Kind: vector.Int, I: data}}
		_, _, want := runOracle(t, k, in)
		if want == nil || !strings.Contains(want.Error(), tc.want) {
			t.Fatalf("%s: oracle error %v, want it to name %q", tc.name, want, tc.want)
		}
		for _, par := range []Par{{Workers: 1}, {Workers: 1, NoSpecialize: true}} {
			env := newEnv(k)
			for name, buf := range in {
				if err := env.bind(k, name, buf); err != nil {
					t.Fatal(err)
				}
			}
			var rec FragStats
			got := RunFragment(context.Background(), k.Frags[0], env, par, &rec, false)
			if path := map[bool]string{false: "batch", true: "interp"}[par.NoSpecialize]; rec.Specialized != path {
				t.Fatalf("%s %+v ran %s, want %s", tc.name, par, rec.Specialized, path)
			}
			if got == nil || got.Error() != want.Error() {
				t.Errorf("%s %+v: error mismatch:\noracle: %v\ngot:    %v", tc.name, par, want, got)
			}
		}
	}
}

// TestBlockedLanesAreNotUnitStride is the regression test for the
// contiguous-copy path of primLoad/primStore: it is only valid when
// neighbouring lanes hold neighbouring elements. With blocked work items of
// Intent > 1 as lanes, lane g's element at step iv is g*Intent+iv, and a
// copy from idx[0] would hand lane 1 element 1 instead of element Intent.
func TestBlockedLanesAreNotUnitStride(t *testing.T) {
	const extent, intent = 7, 431
	n := extent*intent - 5 // ragged: the last work item stops short
	data := seqInts(n)
	k := foldKernel(n, extent, kernel.BAdd, false)
	env, rec := runSpec(t, k, map[string]*Buffer{"in": {Kind: vector.Int, I: data}}, Par{Workers: 1})
	if rec.Specialized != "batch" {
		t.Fatalf("ran %s, want batch", rec.Specialized)
	}
	for g := 0; g < extent; g++ {
		var want int64
		for _, v := range data[g*intent : min((g+1)*intent, n)] {
			want += v
		}
		if got := env.Bufs[1].I[g]; got != want {
			t.Errorf("work item %d summed %d, want %d", g, got, want)
		}
	}
}

// TestCountedRunIsElementOrder: a counted run executes the batch program in
// element order — recorded as "interp", with no tile — and its device-model
// event counters are the oracle's.
func TestCountedRunIsElementOrder(t *testing.T) {
	n := 3000
	idx := make([]int64, n)
	for i := range idx {
		idx[i] = int64((i * 379) % n)
	}
	for _, tc := range []specKernel{
		{name: "select", build: func() *kernel.Kernel { return selectKernel(n, 40) },
			in: map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}},
		{name: "gather", build: func() *kernel.Kernel { return gatherKernel(n) },
			in: map[string]*Buffer{"idx": {Kind: vector.Int, I: idx}, "in": {Kind: vector.Int, I: seqInts(n)}}},
	} {
		k := tc.build()
		_, want, err := runOracle(t, k, tc.in)
		if err != nil {
			t.Fatal(err)
		}
		env := newEnv(k)
		for name, buf := range tc.in {
			if err := env.bind(k, name, buf); err != nil {
				t.Fatal(err)
			}
		}
		var st Stats
		if err := runFrags(context.Background(), k, env, Par{Workers: 2}, &st); err != nil {
			t.Fatal(err)
		}
		fs := st.Frags[0]
		if fs.Specialized != "interp" || fs.TileLanes != 0 {
			t.Errorf("%s: counted run took %s with tile %dx%d, want element order (interp, no tile)", tc.name, fs.Specialized, fs.TileLanes, fs.TileIters)
		}
		if fs.Items != int64(n) || fs.SeqBytes == 0 {
			t.Errorf("%s: counted run collected items=%d seq_bytes=%d", tc.name, fs.Items, fs.SeqBytes)
		}
		if d := sameCounts(want, fs); d != "" {
			t.Errorf("%s: %s", tc.name, d)
		}
	}
}
