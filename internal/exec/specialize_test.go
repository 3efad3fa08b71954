package exec

import (
	"context"
	"errors"
	"math"
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

// foldKernel is the fold shape, which has no batch form (the accumulator
// carries across loop iterations) and so interprets with specialization
// on: Pre seeds an accumulator, the loop accumulates with op, Post stores
// one partial per work item. With strided set, lane g visits g, g+extent,
// ...; otherwise runs are blocked. n need not divide evenly (a ragged
// tail).
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
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "interp"},
		{"fold-min-strided", func() *kernel.Kernel { return foldKernel(n, 4, kernel.BMin, true) },
			map[string]*Buffer{"in": {Kind: vector.Int, I: seqInts(n)}}, "interp"},
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
		{"fold", fold, false, false, false, "per-item prologue, epilogue or scratch array"}, // the verifier's reason
	} {
		rejected := rejectVec.With(tc.reason).Value()
		bp, got := resolveSpec(tc.f, tc.noSpecialize, tc.count, tc.faults)
		if got != tc.reason || (bp != nil) != (tc.reason == "") {
			t.Errorf("%s: reason = %q (batch program %v), want %q", tc.name, got, bp != nil, tc.reason)
		}
		if tc.reason != "" && rejectVec.With(tc.reason).Value() != rejected+1 {
			t.Errorf("%s: voodoo_fragment_reject_total{reason=%q} did not move", tc.name, tc.reason)
		}
	}
}

// TestSpecializeBatchEligibility pins the conservative rejections of the
// batch compiler: locals, register carry across work items, store/load
// aliasing, and multi-iteration loops all fall back to the interpreter.
func TestSpecializeBatchEligibility(t *testing.T) {
	base := func() *kernel.Fragment { return selectKernel(64, 10).Frags[0] }
	if compileBatch(base()).ineligible != nil {
		t.Fatal("canonical selection should be batch-eligible")
	}

	locals := base()
	locals.Locals = 4
	if compileBatch(locals).ineligible == nil {
		t.Error("fragment with locals must not batch")
	}

	carry := base()
	// Read a register never defined in the body: the interpreter would
	// observe a sibling item's leftover value.
	carry.Loops[0].Body[2].A = kernel.FirstFree + 9
	if compileBatch(carry).ineligible == nil {
		t.Error("read-before-def register carry must not batch")
	}

	alias := base()
	// Store to the buffer the fragment also loads: batch order differs.
	alias.Loops[0].Body[4].Buf = alias.Loops[0].Body[1].Buf
	if compileBatch(alias).ineligible == nil {
		t.Error("store aliasing a loaded buffer must not batch")
	}

	multi := foldKernel(64, 4, kernel.BAdd, false).Frags[0]
	if compileBatch(multi).ineligible == nil {
		t.Error("multi-iteration blocked loop must not batch")
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
	fold := foldKernel(64, 4, kernel.BAdd, false).Frags[0]
	if specFor(fold).ineligible == nil {
		t.Error("fold should not be batch-eligible")
	}
	if fold.LoadSpec() == nil {
		t.Error("ineligibility not cached on the fragment")
	}
}

// TestSpecializeCancellation: the batch path honors cancellation at the
// same checkpoints as the interpreter.
func TestSpecializeCancellation(t *testing.T) {
	n := 1 << 16
	k := selectKernel(n, 40)
	env := NewEnv(k)
	if err := env.Bind(k, "in", &Buffer{Kind: vector.Int, I: seqInts(n)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Run(ctx, k, env, Par{Workers: 2}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSpecializeErrorParity: a mid-run bounds fault reports the same
// error from the batch path as from the interpreter.
func TestSpecializeErrorParity(t *testing.T) {
	n := 100
	build := func() *kernel.Kernel {
		k := &kernel.Kernel{}
		in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
		out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
		rc, ri, r0 := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2
		k.Frags = append(k.Frags, &kernel.Fragment{
			Name: "oob", Extent: n, Intent: 1, N: n,
			Loops: []kernel.Loop{{Body: []kernel.Instr{
				{Op: kernel.IConstI, Dst: rc, Imm: 60},
				{Op: kernel.IBin, BOp: kernel.BAdd, Dst: ri, A: kernel.RegIdx, B: rc},
				{Op: kernel.ILoad, Dst: r0, A: ri, Buf: in},
				{Op: kernel.IStore, A: kernel.RegIdx, B: r0, Buf: out, Seq: true},
			}}},
		})
		return k
	}
	run := func(noSpecialize bool) error {
		k := build()
		env := NewEnv(k)
		if err := env.Bind(k, "in", &Buffer{Kind: vector.Int, I: seqInts(n)}); err != nil {
			t.Fatal(err)
		}
		return Run(context.Background(), k, env, Par{Workers: 1, NoSpecialize: noSpecialize}, nil)
	}
	want, got := run(true), run(false)
	if want == nil || got == nil {
		t.Fatalf("both paths should fail: interp=%v batch=%v", want, got)
	}
	if want.Error() != got.Error() {
		t.Errorf("error mismatch:\ninterp: %v\nbatch:  %v", want, got)
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
