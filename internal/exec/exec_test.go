package exec

import (
	"context"
	"testing"

	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

// addKernel builds: out[i] = a[i] + b[i], blocked over extent work items.
func addKernel(n, extent int) *kernel.Kernel {
	k := &kernel.Kernel{}
	a := k.AddBuf(kernel.BufDecl{Name: "a", Kind: vector.Int, Size: n, Input: true})
	b := k.AddBuf(kernel.BufDecl{Name: "b", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
	intent := (n + extent - 1) / extent
	r0, r1, r2 := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "add", Extent: extent, Intent: intent, N: n,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: a, Seq: true},
			{Op: kernel.ILoad, Dst: r1, A: kernel.RegIdx, Buf: b, Seq: true},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: r2, A: r0, B: r1},
			{Op: kernel.IStore, A: kernel.RegIdx, B: r2, Buf: out, Seq: true},
		}}},
	})
	return k
}

func runKernel(t *testing.T, k *kernel.Kernel, inputs map[string][]int64, workers int, st *Stats) *Env {
	t.Helper()
	env := newEnv(k)
	for name, vals := range inputs {
		if err := env.bind(k, name, &Buffer{Kind: vector.Int, I: vals}); err != nil {
			t.Fatal(err)
		}
	}
	if err := runFrags(context.Background(), k, env, Par{Workers: workers}, st); err != nil {
		t.Fatal(err)
	}
	return env
}

func TestElementwiseAdd(t *testing.T) {
	for _, extent := range []int{1, 3, 7, 10} {
		k := addKernel(10, extent)
		env := runKernel(t, k, map[string][]int64{
			"a": {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
			"b": {10, 10, 10, 10, 10, 10, 10, 10, 10, 10},
		}, 2, nil)
		for i, want := range []int64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19} {
			if got := env.Bufs[2].I[i]; got != want {
				t.Fatalf("extent %d: out[%d] = %d, want %d", extent, i, got, want)
			}
		}
	}
}

// foldSumKernel builds a blocked hierarchical sum: each of extent work items
// sums its run of intent elements into partial[gid].
func foldSumKernel(n, extent int) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "partial", Kind: vector.Int, Size: extent})
	intent := (n + extent - 1) / extent
	acc, v := kernel.FirstFree, kernel.FirstFree+1
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "foldsum", Extent: extent, Intent: intent, N: n,
		Pre: []kernel.Instr{{Op: kernel.IConstI, Dst: acc, Imm: 0}},
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: acc, A: acc, B: v},
		}}},
		Post: []kernel.Instr{
			{Op: kernel.IStore, A: kernel.RegGID, B: acc, Buf: out, Seq: true},
		},
	})
	return k
}

func TestBlockedFoldSum(t *testing.T) {
	in := make([]int64, 100)
	var want int64
	for i := range in {
		in[i] = int64(i)
		want += int64(i)
	}
	for _, extent := range []int{1, 4, 7} {
		k := foldSumKernel(100, extent)
		env := runKernel(t, k, map[string][]int64{"in": in}, 3, nil)
		var got int64
		for _, p := range env.Bufs[1].I {
			got += p
		}
		if got != want {
			t.Fatalf("extent %d: sum = %d, want %d", extent, got, want)
		}
	}
}

func TestStridedIndexing(t *testing.T) {
	// Strided sum with extent 4: lane g sums elements g, g+4, g+8, ...
	n, extent := 16, 4
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "partial", Kind: vector.Int, Size: extent})
	acc, v := kernel.FirstFree, kernel.FirstFree+1
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "strided", Extent: extent, Intent: n / extent, N: n, Strided: true,
		Pre: []kernel.Instr{{Op: kernel.IConstI, Dst: acc, Imm: 0}},
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: acc, A: acc, B: v},
		}}},
		Post: []kernel.Instr{{Op: kernel.IStore, A: kernel.RegGID, B: acc, Buf: out, Seq: true}},
	})
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % extent) // lane id: lane g sums only value g
	}
	env := runKernel(t, k, map[string][]int64{"in": vals}, 1, nil)
	for g := 0; g < extent; g++ {
		if got := env.Bufs[out].I[g]; got != int64(g*n/extent) {
			t.Fatalf("lane %d = %d, want %d", g, got, g*n/extent)
		}
	}
	_ = in
}

// TestGuardAndDynamicBound exercises the branching select pattern: loop 1
// emits matching positions into locals with a cursor; loop 2 sums the
// gathered values using the cursor as a dynamic bound.
func TestGuardAndDynamicBound(t *testing.T) {
	n := 12
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "sum", Kind: vector.Int, Size: 1})
	cur, v, pred, acc, pos := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2, kernel.FirstFree+3, kernel.FirstFree+4
	five := kernel.FirstFree + 5
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "selectsum", Extent: 1, Intent: n, N: n, Locals: n,
		Pre: []kernel.Instr{
			{Op: kernel.IConstI, Dst: cur, Imm: 0},
			{Op: kernel.IConstI, Dst: acc, Imm: 0},
			{Op: kernel.IConstI, Dst: five, Imm: 5},
		},
		Loops: []kernel.Loop{
			{Body: []kernel.Instr{
				{Op: kernel.ILoad, Dst: v, A: kernel.RegIdx, Buf: in, Seq: true},
				{Op: kernel.IBin, BOp: kernel.BGt, Dst: pred, A: v, B: five},
				{Op: kernel.IGuard, A: pred},
				{Op: kernel.IStoreLoc, A: cur, B: kernel.RegIdx},
				{Op: kernel.IConstI, Dst: v, Imm: 1},
				{Op: kernel.IBin, BOp: kernel.BAdd, Dst: cur, A: cur, B: v},
			}},
			{BoundReg: cur, Body: []kernel.Instr{
				{Op: kernel.ILoadLoc, Dst: pos, A: kernel.RegIV},
				{Op: kernel.ILoad, Dst: v, A: pos, Buf: in},
				{Op: kernel.IBin, BOp: kernel.BAdd, Dst: acc, A: acc, B: v},
			}},
		},
		Post: []kernel.Instr{{Op: kernel.IConstI, Dst: v, Imm: 0},
			{Op: kernel.IStore, A: v, B: acc, Buf: out, Seq: true}},
	})
	vals := []int64{1, 9, 2, 8, 3, 7, 4, 6, 5, 10, 0, 11}
	var want int64
	for _, x := range vals {
		if x > 5 {
			want += x
		}
	}
	var st Stats
	env := runKernel(t, k, map[string][]int64{"in": vals}, 1, &st)
	if got := env.Bufs[out].I[0]; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	fs := st.Frags[0]
	if fs.Guards != int64(n) {
		t.Errorf("guards = %d, want %d", fs.Guards, n)
	}
	if fs.GuardsPass != 6 {
		t.Errorf("guards passed = %d, want 6", fs.GuardsPass)
	}
	_ = in
}

// TestGroupedLocalsPostLoop exercises the virtual-scatter grouped
// aggregation: per-work-item local accumulator array flushed by PostLoop.
func TestGroupedLocalsPostLoop(t *testing.T) {
	n, groups, extent := 12, 3, 2
	k := &kernel.Kernel{}
	g := k.AddBuf(kernel.BufDecl{Name: "g", Kind: vector.Int, Size: n, Input: true})
	v := k.AddBuf(kernel.BufDecl{Name: "v", Kind: vector.Int, Size: n, Input: true})
	part := k.AddBuf(kernel.BufDecl{Name: "part", Kind: vector.Int, Size: extent * groups})
	rg, rv, racc, rslot, rk := kernel.FirstFree, kernel.FirstFree+1, kernel.FirstFree+2, kernel.FirstFree+3, kernel.FirstFree+4
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "grouped", Extent: extent, Intent: n / extent, N: n,
		Locals: groups,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: rg, A: kernel.RegIdx, Buf: g, Seq: true},
			{Op: kernel.ILoad, Dst: rv, A: kernel.RegIdx, Buf: v, Seq: true},
			{Op: kernel.ILoadLoc, Dst: racc, A: rg},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: racc, A: racc, B: rv},
			{Op: kernel.IStoreLoc, A: rg, B: racc},
		}}},
		PostLoopBody: []kernel.Instr{
			// part[gid*groups + j] = loc[j]
			{Op: kernel.IConstI, Dst: rk, Imm: int64(groups)},
			{Op: kernel.IBin, BOp: kernel.BMul, Dst: rslot, A: kernel.RegGID, B: rk},
			{Op: kernel.IBin, BOp: kernel.BAdd, Dst: rslot, A: rslot, B: kernel.RegJ},
			{Op: kernel.ILoadLoc, Dst: racc, A: kernel.RegJ},
			{Op: kernel.IStore, A: rslot, B: racc, Buf: part, Seq: true},
		},
	})
	gs := []int64{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}
	vs := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	env := runKernel(t, k, map[string][]int64{"g": gs, "v": vs}, 2, nil)
	want := []int64{1 + 4 + 7 + 10, 2 + 5 + 8 + 11, 3 + 6 + 9 + 12}
	for grp := 0; grp < groups; grp++ {
		var got int64
		for e := 0; e < extent; e++ {
			got += env.Bufs[part].I[e*groups+grp]
		}
		if got != want[grp] {
			t.Fatalf("group %d = %d, want %d", grp, got, want[grp])
		}
	}
}

func TestStatsCounting(t *testing.T) {
	k := addKernel(8, 2)
	var st Stats
	runKernel(t, k, map[string][]int64{
		"a": {1, 2, 3, 4, 5, 6, 7, 8},
		"b": {1, 1, 1, 1, 1, 1, 1, 1},
	}, 2, &st)
	fs := st.Frags[0]
	if fs.Items != 8 {
		t.Errorf("items = %d, want 8", fs.Items)
	}
	if fs.IntOps != 8 {
		t.Errorf("intops = %d, want 8", fs.IntOps)
	}
	if fs.SeqBytes != 8*3*8 { // 2 loads + 1 store per item, 8 bytes each
		t.Errorf("seqbytes = %d, want %d", fs.SeqBytes, 8*3*8)
	}
}

func TestRandomAccessHistogram(t *testing.T) {
	n := 4
	k := &kernel.Kernel{}
	pos := k.AddBuf(kernel.BufDecl{Name: "pos", Kind: vector.Int, Size: n, Input: true})
	data := k.AddBuf(kernel.BufDecl{Name: "data", Kind: vector.Int, Size: 100, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
	p, v := kernel.FirstFree, kernel.FirstFree+1
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "gather", Extent: 1, Intent: n, N: n,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: p, A: kernel.RegIdx, Buf: pos, Seq: true},
			{Op: kernel.ILoad, Dst: v, A: p, Buf: data}, // random
			{Op: kernel.IStore, A: kernel.RegIdx, B: v, Buf: out, Seq: true},
		}}},
	})
	env := newEnv(k)
	if err := env.bind(k, "pos", &Buffer{Kind: vector.Int, I: []int64{99, 0, 50, 3}}); err != nil {
		t.Fatal(err)
	}
	big := make([]int64, 100)
	big[99], big[0], big[50], big[3] = 9, 1, 5, 3
	if err := env.bind(k, "data", &Buffer{Kind: vector.Int, I: big}); err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := runFrags(context.Background(), k, env, Par{Workers: 1}, &st); err != nil {
		t.Fatal(err)
	}
	fs := st.Frags[0]
	// Positions 99, 0, 50, 3: the access at 3 shares the cache line of the
	// earlier access at 0, so it counts as near.
	if fs.RandAccesses != 3 || fs.NearAccesses != 1 {
		t.Errorf("rand/near = %d/%d, want 3/1", fs.RandAccesses, fs.NearAccesses)
	}
	if e := fs.RandByBuf[1]; e.Bytes != 800 || e.Count != 3 {
		t.Errorf("rand histogram = %v, want buf1 {800, 3}", fs.RandByBuf)
	}
	for i, want := range []int64{9, 1, 5, 3} {
		if env.Bufs[2].I[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, env.Bufs[2].I[i], want)
		}
	}
}

func TestOutOfBoundsLoadErrors(t *testing.T) {
	n := 2
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	r := kernel.FirstFree
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "oob", Extent: 1, Intent: 1, N: 1,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.IConstI, Dst: r, Imm: 5},
			{Op: kernel.ILoad, Dst: r, A: r, Buf: in},
		}}},
	})
	env := newEnv(k)
	if err := env.bind(k, "in", &Buffer{Kind: vector.Int, I: []int64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := runFrags(context.Background(), k, env, Par{Workers: 1}, nil); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
}

func TestBufferColumnRoundTrip(t *testing.T) {
	c := vector.NewEmptyInt(3)
	c.SetInt(1, 42)
	b := FromColumn(c, nil)
	back := b.Column()
	if !c.Equal(back) {
		t.Fatal("column -> buffer -> column round trip changed data")
	}
}
