package exec

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

// specKernel is one differential case: a kernel builder plus its inputs.
// Builders return fresh kernels so each run starts from an uncompiled
// fragment cache where the test wants that.
type specKernel struct {
	name  string
	build func() *kernel.Kernel
	in    map[string]*Buffer
	path  string // the tier the fragment takes with specialization on
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
	env := NewEnv(k)
	for name, buf := range in {
		if err := env.Bind(k, name, buf); err != nil {
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

// TestSpecializeModesBitIdentical is the in-package half of difftest
// combo #7: for every representative fragment shape, specialization on at
// every morsel size × worker count produces buffers bit-identical to the
// interpreter's, and the record of the run — which both tiers keep — reports
// the interpreter's Items and StoreBytes from whichever tier the fragment
// takes unobserved.
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
	cases := []specKernel{
		{"select", func() *kernel.Kernel { return selectKernel(n, 40) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch"},
		{"select-masked", func() *kernel.Kernel {
			k := selectKernel(n, 40)
			k.Bufs[1].Valid = true // stores also write a validity byte
			return k
		}, map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch"},
		{"map-float", func() *kernel.Kernel { return mapFloatKernel(n) },
			map[string]*Buffer{"in": {Kind: vector.Float, F: floats}}, "batch"},
		{"fold-sum-blocked", func() *kernel.Kernel { return foldKernel(n, 7, kernel.BAdd, false) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch"},
		{"fold-min-strided", func() *kernel.Kernel { return foldKernel(n, 4, kernel.BMin, true) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch"},
		{"fold-extent-1", func() *kernel.Kernel { return foldKernel(n, 1, kernel.BAdd, false) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "interp"},
		{"fold-ragged", func() *kernel.Kernel {
			// 64 × 59 overshoots n by 13 whole work items: they run no
			// iteration but still seed and store their partial.
			k := foldKernel(n, 64, kernel.BAdd, false)
			k.Frags[0].Intent = 59
			return k
		}, map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch"},
		{"filter-branching", func() *kernel.Kernel { return filterKernel(n, 51, 40, false) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch"},
		{"filter-predicated", func() *kernel.Kernel { return filterKernel(n, 51, 40, true) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch"},
		{"filter-fold-two-loop", func() *kernel.Kernel { return filterFoldKernel(n, 64, 59, 40) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "batch"},
		{"group-fold-locals", func() *kernel.Kernel { return groupFoldKernel(n, 13, 5) },
			map[string]*Buffer{"in": withValid}, "batch"},
		{"mat-recut", func() *kernel.Kernel {
			// The map over 200 × 15 blocked work items: carry-free, so it
			// runs as 3000 element lanes.
			k := mapFloatKernel(n)
			k.Frags[0].Extent, k.Frags[0].Intent = 200, 15
			return k
		}, map[string]*Buffer{"in": {Kind: vector.Float, F: floats}}, "batch"},
		{"gather", func() *kernel.Kernel { return gatherKernel(n) },
			map[string]*Buffer{"idx": {Kind: vector.Int, I: idx}, "in": {Kind: vector.Int, I: seqInts(n)}}, "batch"},
		{"mixed", func() *kernel.Kernel { return mixedKernel(n) },
			map[string]*Buffer{"in": withValid}, "batch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := tc.build()
			oracle, want := runSpec(t, k, tc.in, Par{Workers: 1, NoSpecialize: true})
			if want.Specialized != "interp" || want.Reason != "no-specialize" || want.Items == 0 || want.StoreBytes == 0 {
				t.Fatalf("oracle record = %+v, want a non-empty interp(no-specialize) record", want)
			}
			for _, morsel := range []int{1, 7, 0} {
				for _, workers := range []int{1, 4} {
					got, rec := runSpec(t, k, tc.in, Par{Workers: workers, Morsel: morsel})
					requireSameBufs(t, k, oracle, got, tc.name)
					if rec.Specialized != tc.path {
						t.Errorf("morsel=%d workers=%d: recorded run took %q, want %q", morsel, workers, rec.Specialized, tc.path)
					}
					if rec.Items != want.Items || rec.StoreBytes != want.StoreBytes {
						t.Errorf("morsel=%d workers=%d (%s): items=%d store_bytes=%d, interpreter reports %d / %d",
							morsel, workers, rec.Specialized, rec.Items, rec.StoreBytes, want.Items, want.StoreBytes)
					}
					if rec.IntOps != 0 || rec.SeqBytes != 0 || rec.Guards != 0 {
						t.Errorf("morsel=%d workers=%d: an uncounted run collected device counters: %+v", morsel, workers, rec)
					}
				}
			}
		})
	}
}

// TestResolveSpecPaths pins the path-resolution policy and the reason it
// reports: batch where eligible; NoSpecialize, fault injection and a request
// for the device counters each force the interpreter; an ineligible
// fragment interprets for the verifier's reason.
func TestResolveSpecPaths(t *testing.T) {
	sel := selectKernel(64, 10).Frags[0]
	gather := gatherKernel(64).Frags[0]
	fold := foldKernel(64, 4, kernel.BAdd, false).Frags[0]
	fold1 := foldKernel(64, 1, kernel.BAdd, false).Frags[0]
	for _, tc := range []struct {
		name         string
		f            *kernel.Fragment
		noSpecialize bool
		count        bool
		faults       bool
		reason       string // "" = batch
	}{
		{"select", sel, false, false, false, ""},
		{"select-off", sel, true, false, false, "no-specialize"},
		{"select-faults", sel, false, false, true, "fault-hooks"},
		{"select-counted", sel, false, true, false, "counted"},
		{"gather", gather, false, false, false, ""},
		{"gather-counted", gather, false, true, false, "counted"},
		{"fold", fold, false, false, false, ""},
		{"fold-counted", fold, false, true, false, "counted"},
		{"fold-extent-1", fold1, false, false, false, "fewer than 4 work items to run as lanes"}, // the verifier's reason
	} {
		rejected := rejectVec.With(tc.reason).Value()
		bp, got := resolveSpec(specFor(tc.f), tc.noSpecialize, tc.count, tc.faults)
		if got != tc.reason || (bp != nil) != (tc.reason == "") {
			t.Errorf("%s: reason = %q (batch program %v), want %q", tc.name, got, bp != nil, tc.reason)
		}
		if tc.reason != "" && rejectVec.With(tc.reason).Value() != rejected+1 {
			t.Errorf("%s: voodoo_fragment_reject_total{reason=%q} did not move", tc.name, tc.reason)
		}
	}
}

// TestSpecializeBatchEligibility pins the rejections that remain now that
// the batch tier runs whole fragments: a register read no definition of
// the same work item dominates, a buffer both loaded and stored, and too
// few work items to be worth lanes. Each reports its own reason.
func TestSpecializeBatchEligibility(t *testing.T) {
	const undominated = "register read without a dominating definition in its work item"
	sel := func() *kernel.Fragment { return selectKernel(64, 10).Frags[0] }
	fold := func() *kernel.Fragment { return foldKernel(64, 8, kernel.BAdd, false).Frags[0] }
	for _, tc := range []struct {
		name   string
		f      *kernel.Fragment
		mutate func(f *kernel.Fragment)
		reason string // "" = eligible
	}{
		{"select", sel(), nil, ""},
		{"fold", fold(), nil, ""},
		{"filter-fold", filterFoldKernel(640, 8, 80, 10).Frags[0], nil, ""},
		{"group-fold", groupFoldKernel(640, 8, 5).Frags[0], nil, ""},
		{"never-defined", sel(), func(f *kernel.Fragment) {
			// The interpreter would observe a sibling item's leftover.
			f.Loops[0].Body[2].A = kernel.FirstFree + 9
		}, undominated},
		{"accumulator-without-seed", fold(), func(f *kernel.Fragment) {
			// Defined in the loop only: its first read sees the previous
			// work item's total.
			f.Pre = nil
		}, undominated},
		{"post-reads-loop-def", fold(), func(f *kernel.Fragment) {
			// The loop may run zero times, so its definitions do not reach
			// the epilogue.
			f.Post[0].B = kernel.FirstFree + 1
		}, undominated},
		{"post-reads-idx", fold(), func(f *kernel.Fragment) {
			f.Post[0].A = kernel.RegIdx
		}, undominated},
		{"def-behind-guard", fold(), func(f *kernel.Fragment) {
			// A guard ahead of the seed may skip it.
			f.Pre = append([]kernel.Instr{{Op: kernel.IGuard, A: kernel.RegGID}}, f.Pre...)
		}, undominated},
		{"bound-from-loop", filterFoldKernel(640, 8, 80, 10).Frags[0], func(f *kernel.Fragment) {
			f.Pre = f.Pre[:1] // the cursor is no longer seeded before loop 1 reads it as its bound
		}, undominated},
		{"load-store-overlap", sel(), func(f *kernel.Fragment) {
			// Store to the buffer the fragment also loads: lanes run
			// step-major, so a load could see a store too early.
			f.Loops[0].Body[4].Buf = f.Loops[0].Body[1].Buf
		}, "buffer both loaded and stored"},
		{"too-few-work-items", foldKernel(64, 3, kernel.BAdd, false).Frags[0], nil,
			"fewer than 4 work items to run as lanes"},
		{"few-work-items-many-elements", mapFloatKernel(64).Frags[0], func(f *kernel.Fragment) {
			f.Extent, f.Intent = 2, 32 // carry-free: its 64 elements are the lanes
		}, ""},
	} {
		if tc.mutate != nil {
			tc.mutate(tc.f)
		}
		bp := compileBatch(tc.f)
		got := ""
		if bp.ineligible != nil {
			got = bp.ineligible.reason
		}
		if got != tc.reason {
			t.Errorf("%s: reject reason %q, want %q", tc.name, got, tc.reason)
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
	if sp1.ineligible != nil {
		t.Error("canonical selection should compile to batch primitives")
	}
	// An ineligible fragment caches its rejection too, so it is analysed
	// once rather than on every execution.
	fold := foldKernel(64, 1, kernel.BAdd, false).Frags[0]
	if specFor(fold).ineligible == nil {
		t.Error("a single-work-item fold should not be batch-eligible")
	}
	if fold.LoadSpec() == nil {
		t.Error("ineligibility not cached on the fragment")
	}
}

// countingCtx counts the checkpoints a run makes: every one asks Err.
type countingCtx struct {
	context.Context
	checks atomic.Int64
}

func (c *countingCtx) Err() error {
	c.checks.Add(1)
	return c.Context.Err()
}

// TestSpecializeCancellation: the batch path honors cancellation at the
// interpreter's cadence — an already-cancelled run stops before any work,
// single-step and multi-iteration fragments alike, and a running one
// reaches a checkpoint at least every checkInterval lane-steps.
func TestSpecializeCancellation(t *testing.T) {
	n := 1 << 16
	in := &Buffer{Kind: vector.Int, I: seqInts(n)}
	for name, k := range map[string]*kernel.Kernel{
		"select":      selectKernel(n, 40),
		"fold":        foldKernel(n, 1013, kernel.BAdd, false),
		"filter-fold": filterFoldKernel(n, 1111, 59, 40),
		"group-fold":  groupFoldKernel(n, 64, 189),
	} {
		env := NewEnv(k)
		if err := env.Bind(k, "in", in); err != nil {
			t.Fatal(err)
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if err := Run(cancelled, k, env, Par{Workers: 2}, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}

		live, stop := context.WithCancel(context.Background())
		ctx := &countingCtx{Context: live}
		var fs FragStats
		if err := RunFragment(ctx, k.Frags[0], env, Par{Workers: 1}, &fs, false); err != nil {
			t.Fatal(err)
		}
		stop()
		if fs.Specialized != "batch" {
			t.Fatalf("%s ran %s(%s), want batch", name, fs.Specialized, fs.Reason)
		}
		if got, want := ctx.checks.Load(), fs.Items/checkInterval; got < want {
			t.Errorf("%s: %d checkpoints over %d lane-steps, want one at least every %d (%d)",
				name, got, fs.Items, checkInterval, want)
		}
	}
}

// TestSpecializeErrorParity: a mid-run bounds fault reports the same error
// from the batch path as from the interpreter, text included — also when
// lanes reach a different fault first. In the multi-iteration case element
// 5 (work item 0, iteration 5) and element 17 (work item 2, iteration 1)
// both gather out of range: the interpreter, element-major, dies on
// element 5; the lanes, step-major, get to element 17 four steps earlier.
func TestSpecializeErrorParity(t *testing.T) {
	gather := func(extent, intent int) *kernel.Kernel {
		n := extent * intent
		k := &kernel.Kernel{}
		off := k.AddBuf(kernel.BufDecl{Name: "off", Kind: vector.Int, Size: n, Input: true})
		in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
		out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: extent})
		acc, ro, ri, r0 := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2, kernel.FirstFree+3
		k.Frags = append(k.Frags, &kernel.Fragment{
			Name: "oob", Extent: extent, Intent: intent, N: n,
			Pre: []kernel.Instr{{Op: kernel.IConstI, Dst: acc, Imm: 0}},
			Loops: []kernel.Loop{{Body: []kernel.Instr{
				{Op: kernel.ILoad, Dst: ro, A: kernel.RegIdx, Buf: off, Seq: true},
				{Op: kernel.IBin, BOp: kernel.BAdd, Dst: ri, A: kernel.RegIdx, B: ro},
				{Op: kernel.ILoad, Dst: r0, A: ri, Buf: in},
				{Op: kernel.IBin, BOp: kernel.BAdd, Dst: acc, A: acc, B: r0},
			}}},
			Post: []kernel.Instr{{Op: kernel.IStore, A: kernel.RegGID, B: acc, Buf: out, Seq: true}},
		})
		return k
	}
	for _, tc := range []struct {
		name           string
		extent, intent int
		faults         map[int]int64 // element → offset added to its gather index
		want           string
	}{
		{"one-step", 100, 1, map[int]int64{40: 60, 70: 900}, "idx 100 len 100"},
		{"lane-order-differs", 4, 8, map[int]int64{5: 1000, 17: 2000}, "idx 1005 len 32"},
	} {
		run := func(noSpecialize bool) (error, FragStats) {
			k := gather(tc.extent, tc.intent)
			n := tc.extent * tc.intent
			off := make([]int64, n)
			for e, o := range tc.faults {
				off[e] = o
			}
			env := NewEnv(k)
			for name, buf := range map[string]*Buffer{"off": {Kind: vector.Int, I: off}, "in": {Kind: vector.Int, I: seqInts(n)}} {
				if err := env.Bind(k, name, buf); err != nil {
					t.Fatal(err)
				}
			}
			var fs FragStats
			return RunFragment(context.Background(), k.Frags[0], env, Par{Workers: 1, NoSpecialize: noSpecialize}, &fs, false), fs
		}
		want, _ := run(true)
		got, rec := run(false)
		if want == nil || got == nil {
			t.Fatalf("%s: both paths should fail: interp=%v batch=%v", tc.name, want, got)
		}
		if rec.Specialized != "batch" {
			t.Fatalf("%s ran %s(%s), want batch", tc.name, rec.Specialized, rec.Reason)
		}
		if want.Error() != got.Error() || !strings.Contains(got.Error(), tc.want) {
			t.Errorf("%s: error mismatch (want it to name %q):\ninterp: %v\nbatch:  %v", tc.name, tc.want, want, got)
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
		t.Fatalf("ran %s(%s), want batch", rec.Specialized, rec.Reason)
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

// TestCountedRunInterprets: the device-model event counters live in the
// interpreter tier only, so a counted run interprets every fragment —
// batch-eligible or not — and says so.
func TestCountedRunInterprets(t *testing.T) {
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
		env := NewEnv(k)
		for name, buf := range tc.in {
			if err := env.Bind(k, name, buf); err != nil {
				t.Fatal(err)
			}
		}
		var st Stats
		if err := Run(context.Background(), k, env, Par{Workers: 2}, &st); err != nil {
			t.Fatal(err)
		}
		fs := st.Frags[0]
		if fs.Specialized != "interp" || fs.Reason != "counted" {
			t.Errorf("%s: counted run took %s(%s), want interp(counted)", tc.name, fs.Specialized, fs.Reason)
		}
		if fs.Items != int64(n) || fs.SeqBytes == 0 {
			t.Errorf("%s: counted run collected items=%d seq_bytes=%d", tc.name, fs.Items, fs.SeqBytes)
		}
	}
}
