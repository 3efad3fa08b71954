package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"voodoo/internal/faultinject"
	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

// staticChunkRun reimplements the pre-scheduler executor — one static
// chunk per worker, fresh goroutines — as the baseline the skew-stress
// test measures the morsel scheduler against. Both run the fragment's batch
// program in tiles, so the two differ in scheduling only.
func staticChunkRun(t *testing.T, f *kernel.Fragment, env *Env, workers int) {
	t.Helper()
	bp := specFor(f)
	chunk := (f.Extent + workers - 1) / workers
	var stop atomic.Int64 // never set: no range aborts
	var wg sync.WaitGroup
	for lo := 0; lo < f.Extent; lo += chunk {
		hi := min(lo+chunk, f.Extent)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			w := newWorker(context.Background(), f, env, bp, false, false, &stop)
			if err := protect(f.Name, func() error { return w.run(lo, hi) }); err != nil {
				t.Error(err)
			}
			w.release()
		}(lo, hi)
	}
	wg.Wait()
}

// TestSkewStressBeatsStaticChunking is the pathological-skew workload:
// every expensive work item lands in the first static chunk (the shape of
// a predicate whose matches are all in one range), so static chunking
// serializes the whole fragment behind worker 0 while the morsel
// scheduler spreads the expensive morsels over every participant. The
// morsel run must be at least 2× faster and produce bit-identical output.
func TestSkewStressBeatsStaticChunking(t *testing.T) {
	const (
		n       = 1 << 16
		workers = 4
		delay   = 20 * time.Millisecond
	)
	k := busyKernel(n, 1)
	f := k.Frags[0]
	env := newEnv(k)
	bindIn(t, k, env, n)

	// All the cost sits in the first quarter — exactly static worker 0's
	// chunk. The hook fires at checkpoint cadence, so the expensive region
	// holds ~32 sleeps: ~640ms serialized, ~160ms spread over 4 workers.
	// The sleeps must dwarf the items' own work, which the race detector
	// and a loaded 2-CPU box stretch to ~60ms of either run.
	faultinject.With(t, faultinject.Hooks{
		Item: func(frag string, gid int) {
			if gid < n/4 {
				time.Sleep(delay)
			}
		},
	})

	start := time.Now()
	staticChunkRun(t, f, env, workers)
	staticElapsed := time.Since(start)
	want := append([]int64(nil), env.Bufs[1].I...)

	clear(env.Bufs[1].I)
	var fs FragStats
	start = time.Now()
	if err := RunFragment(context.Background(), f, env, Par{Workers: workers, Morsel: 1024}, &fs, false); err != nil {
		t.Fatal(err)
	}
	morselElapsed := time.Since(start)

	for i, v := range env.Bufs[1].I {
		if v != want[i] {
			t.Fatalf("out[%d] = %d, want %d: morsel run not bit-identical to static run", i, v, want[i])
		}
	}
	t.Logf("static=%v morsel=%v (%.1fx) workers=%d morsels=%d imbalance=%.2f",
		staticElapsed, morselElapsed,
		float64(staticElapsed)/float64(morselElapsed), fs.Workers, fs.Morsels, fs.Imbalance)
	if 2*morselElapsed > staticElapsed {
		t.Errorf("morsel run %v vs static %v: want >= 2x speedup on skewed work",
			morselElapsed, staticElapsed)
	}
	if fs.Workers < 2 {
		t.Errorf("fs.Workers = %d: the pool never helped with the skewed fragment", fs.Workers)
	}
	if fs.Morsels != n/1024 {
		t.Errorf("fs.Morsels = %d, want %d", fs.Morsels, n/1024)
	}
}

// TestUniformLoadBalancesMorselCounts runs a fragment whose morsels all
// cost the same and asserts the per-participant morsel counts come out
// balanced (imbalance near 1), which static chunking only achieves by
// construction and the scheduler must achieve by claiming.
func TestUniformLoadBalancesMorselCounts(t *testing.T) {
	const (
		n       = 1 << 14
		workers = 4
	)
	k := busyKernel(n, 1)
	env := newEnv(k)
	bindIn(t, k, env, n)

	// Uniform per-checkpoint cost so every morsel takes long enough that
	// no participant can race through the whole ticket space alone.
	faultinject.With(t, faultinject.Hooks{
		Item: func(frag string, gid int) { time.Sleep(2 * time.Millisecond) },
	})

	var fs FragStats
	if err := RunFragment(context.Background(), k.Frags[0], env, Par{Workers: workers, Morsel: 1024}, &fs, false); err != nil {
		t.Fatal(err)
	}
	t.Logf("workers=%d morsels=%d imbalance=%.2f", fs.Workers, fs.Morsels, fs.Imbalance)
	if fs.Workers < 2 {
		t.Fatalf("fs.Workers = %d: pool never engaged", fs.Workers)
	}
	if fs.Imbalance > 2 {
		t.Errorf("imbalance = %.2f on uniform load, want <= 2 (balanced claims)", fs.Imbalance)
	}
}

// TestMorselSizeDeterminism runs the same kernel at pathological and
// default morsel sizes and asserts bit-identical output buffers: claim
// order must never leak into results.
func TestMorselSizeDeterminism(t *testing.T) {
	const n = 1 << 14
	k := busyKernel(n, 2)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i * 3)
	}

	var want []int64
	for _, morsel := range []int{1, 7, 1024, 0} {
		env := newEnv(k)
		if err := env.bind(k, "in", &Buffer{Kind: vector.Int, I: vals}); err != nil {
			t.Fatal(err)
		}
		if err := runFrags(context.Background(), k, env, Par{Workers: 4, Morsel: morsel}, nil); err != nil {
			t.Fatalf("morsel=%d: %v", morsel, err)
		}
		got := env.Bufs[1].I
		if want == nil {
			want = append([]int64(nil), got...)
			continue
		}
		for i, v := range got {
			if v != want[i] {
				t.Fatalf("morsel=%d: out[%d] = %d, want %d", morsel, i, v, want[i])
			}
		}
	}
}

// TestConcurrentQueriesSharedPool hammers the shared pool with many
// concurrent runs (run under -race in CI): results must stay correct,
// every run must finish even when the pool is oversubscribed, and no job
// may be left published afterwards.
func TestConcurrentQueriesSharedPool(t *testing.T) {
	const (
		queries = 8
		iters   = 20
		n       = 1 << 13
	)
	var wg sync.WaitGroup
	errc := make(chan error, queries)
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			k := busyKernel(n, 2)
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(i + q)
			}
			for it := 0; it < iters; it++ {
				env := newEnv(k)
				if err := env.bind(k, "in", &Buffer{Kind: vector.Int, I: vals}); err != nil {
					errc <- err
					return
				}
				if err := runFrags(context.Background(), k, env, Par{Workers: 4, Morsel: 512}, nil); err != nil {
					errc <- err
					return
				}
				for i, v := range env.Bufs[1].I {
					if v != 2*int64(i+q) {
						errc <- fmt.Errorf("query %d iter %d: out[%d] = %d, want %d", q, it, i, v, 2*int64(i+q))
						return
					}
				}
			}
		}(q)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if st := SchedulerStats(); st.ActiveJobs != 0 {
		t.Errorf("SchedulerStats().ActiveJobs = %d after all runs returned, want 0", st.ActiveJobs)
	}
}

// TestQuiesceSchedulerStopsAndRestarts drains the shared pool, asserts
// zero worker goroutines remain, then verifies the pool restarts
// transparently at the next parallel fragment.
func TestQuiesceSchedulerStopsAndRestarts(t *testing.T) {
	const n = 1 << 15
	k := busyKernel(n, 1)
	run := func() {
		env := newEnv(k)
		bindIn(t, k, env, n)
		if err := runFrags(context.Background(), k, env, Par{Workers: 4, Morsel: 512}, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if st := SchedulerStats(); st.Workers == 0 {
		t.Fatal("pool has no workers after a parallel fragment; expected lazy growth")
	}
	QuiesceScheduler()
	if st := SchedulerStats(); st.Workers != 0 {
		t.Fatalf("SchedulerStats().Workers = %d after quiesce, want 0", st.Workers)
	}
	// The pool must come back on demand.
	run()
	if st := SchedulerStats(); st.Workers == 0 {
		t.Fatal("pool did not restart after quiesce")
	}
	QuiesceScheduler()
}

// TestQuiesceDuringRun quiesces the scheduler while fragments are in
// flight: submitters keep claiming morsels themselves, so runs finish
// correctly without pool help.
func TestQuiesceDuringRun(t *testing.T) {
	const n = 1 << 15
	k := busyKernel(n, 1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				QuiesceScheduler()
			}
		}
	}()
	for it := 0; it < 10; it++ {
		env := newEnv(k)
		bindIn(t, k, env, n)
		if err := runFrags(context.Background(), k, env, Par{Workers: 4, Morsel: 512}, nil); err != nil {
			t.Fatal(err)
		}
		for i, v := range env.Bufs[1].I {
			if v != 0 {
				t.Fatalf("out[%d] = %d, want 0 (zero input)", i, v)
			}
		}
	}
	close(stop)
	wg.Wait()
	QuiesceScheduler()
	if st := SchedulerStats(); st.Workers != 0 {
		t.Fatalf("SchedulerStats().Workers = %d after final quiesce, want 0", st.Workers)
	}
}

// TestMorselClaimFaultHook exercises the fault hook at the morsel-claim
// boundary: a panic raised there is isolated into a *PanicError naming
// the fragment, and sibling participants abort.
func TestMorselClaimFaultHook(t *testing.T) {
	const n = 1 << 15
	k := busyKernel(n, 1)
	env := newEnv(k)
	bindIn(t, k, env, n)
	var claims atomic.Int64
	faultinject.With(t, faultinject.Hooks{
		MorselClaim: func(frag string, morsel int) {
			claims.Add(1)
			if morsel == 3 {
				panic("injected claim-boundary bug")
			}
			// Recovering the panic takes longer than a morsel of this
			// kernel: give the abort time to reach the ticket counter.
			time.Sleep(2 * time.Millisecond)
		},
	})
	err := runFrags(context.Background(), k, env, Par{Workers: 4, Morsel: 1024}, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Fragment != "f0" {
		t.Errorf("panic attributed to %q, want f0", pe.Fragment)
	}
	if claims.Load() == 0 {
		t.Error("morsel-claim hook never fired")
	}
	if claims.Load() >= n/1024 {
		t.Errorf("all %d morsels were claimed despite the morsel-3 panic; abort did not propagate", claims.Load())
	}
}

// TestFirstFaultAtAnyCut: a fragment with faults in several ranges fails
// with its first fault in element order, whichever participant finds a
// fault first. The claim hook holds back the range of the first fault, so
// on most runs a higher range fails before it; the failure of a range
// stops only the ranges above it.
func TestFirstFaultAtAnyCut(t *testing.T) {
	const extent, intent, n = 64, 16, 1024
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	tbl := k.AddBuf(kernel.BufDecl{Name: "t", Kind: vector.Int, Size: 50, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
	r0, r1 := kernel.FirstFree, kernel.FirstFree+1
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "gather", Extent: extent, Intent: intent, N: n,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: in, Seq: true},
			{Op: kernel.ILoad, Dst: r1, A: r0, Buf: tbl},
			{Op: kernel.IStore, A: kernel.RegIdx, B: r1, Buf: out, Seq: true},
		}}},
	})
	pos := make([]int64, n)
	for i := range pos {
		pos[i] = int64(i % 50)
	}
	// Faults at the last element of work item 20 and in items 21, 22 and
	// 40, each past t's end by a different amount.
	for i, at := range []int{20*intent + 15, 21 * intent, 22*intent + 3, 40*intent + 8} {
		pos[at] = int64(61 + i)
	}
	run := func(par Par) string {
		env := newEnv(k)
		if err := env.bind(k, "in", &Buffer{Kind: vector.Int, I: pos}); err != nil {
			t.Fatal(err)
		}
		if err := env.bind(k, "t", &Buffer{Kind: vector.Int, I: make([]int64, 50)}); err != nil {
			t.Fatal(err)
		}
		err := runFrags(context.Background(), k, env, par, nil)
		if err == nil {
			t.Fatalf("%+v: the faulting gather succeeded", par)
		}
		return err.Error()
	}
	want := run(Par{Workers: 1})
	if want != "load out of bounds: buf 1 idx 61 len 50" {
		t.Fatalf("one range fails with %q, want the fault of work item 20", want)
	}
	var morsel atomic.Int64
	faultinject.With(t, faultinject.Hooks{
		MorselClaim: func(frag string, m int) {
			if int64(m) == 20/morsel.Load() {
				time.Sleep(200 * time.Microsecond)
			}
		},
	})
	for _, size := range []int{1, 7} {
		morsel.Store(int64(size))
		for i := range 50 {
			if got := run(Par{Workers: 4, Morsel: size}); got != want {
				t.Fatalf("workers 4, morsel %d, run %d: %q, want %q", size, i, got, want)
			}
		}
	}
}

// shapeFrag is a fragment of the given control-vector shape for the cut
// rule's table: extent work items × intent iterations, locals scratch slots
// flushed by a post-loop body when locals > 0.
func shapeFrag(kind string, extent, intent, locals int) *kernel.Fragment {
	f := &kernel.Fragment{Name: "f", Extent: extent, Intent: intent, Locals: locals,
		Prov:  kernel.Prov{Kind: kind},
		Loops: []kernel.Loop{{Body: []kernel.Instr{{Op: kernel.IConstI, Dst: kernel.FirstFree}}}}}
	if locals > 0 {
		f.PostLoopBody = []kernel.Instr{{Op: kernel.IConstI, Dst: kernel.FirstFree}}
	}
	return f
}

// TestCutRule is the rule as a table: fragment shape, workers, goroutines
// already executing fragment work (this submitter included), knobs → how
// many ranges of what width, or the verdict for running as one.
func TestCutRule(t *testing.T) {
	cases := []struct {
		name                   string
		kind                   string
		extent, intent, locals int
		workers, morsel        int
		count                  bool
		busy                   int
		wantRanges, wantWidth  int
		wantVerdict            string
	}{
		// One worker is not a verdict: nothing was decided.
		{name: "workers-1", extent: 1013, intent: 59, workers: 1, busy: 1},
		{name: "extent-1 fold", extent: 1, intent: 59755, workers: 2, busy: 1, wantVerdict: "extent-1"},
		{name: "small map", extent: 4096, intent: 2, workers: 2, busy: 1, wantVerdict: "small"},
		{name: "scratch flush counts as work", extent: 64, intent: 125, locals: 4096, workers: 2, busy: 1, wantRanges: 2, wantWidth: 32},
		{name: "filter 1013x59", extent: 1013, intent: 59, workers: 2, busy: 1, wantRanges: 8, wantWidth: 127},
		{name: "map 4096x15", extent: 4096, intent: 15, workers: 2, busy: 1, wantRanges: 8, wantWidth: 512},
		{name: "map 4096x15 on four", extent: 4096, intent: 15, workers: 4, busy: 1, wantRanges: 16, wantWidth: 256},
		// Few-lane carried fragments: never more ranges than participants.
		{name: "gfold 7x8537", extent: 7, intent: 8537, workers: 2, busy: 1, wantRanges: 2, wantWidth: 4},
		{name: "gfold 7x8537 on four", extent: 7, intent: 8537, workers: 4, busy: 1, wantRanges: 3, wantWidth: 3},
		{name: "gfold 3x2667", extent: 3, intent: 2667, locals: 9000, workers: 4, busy: 1, wantVerdict: "few-items"},
		{name: "gfold 5x2000 on four", extent: 5, intent: 20000, workers: 4, busy: 1, wantRanges: 2, wantWidth: 3},
		{name: "gfold 64x934", extent: 64, intent: 934, workers: 2, busy: 1, wantRanges: 2, wantWidth: 32},
		{name: "gfold 64x934 on four", extent: 64, intent: 934, workers: 4, busy: 1, wantRanges: 4, wantWidth: 16},
		{name: "between: ranges stay 64 wide", extent: 300, intent: 200, workers: 2, busy: 1, wantRanges: 4, wantWidth: 75},
		// No free core: every slot is taken by somebody's fragment.
		{name: "saturated", extent: 1013, intent: 59, workers: 2, busy: 2, wantVerdict: "saturated"},
		{name: "oversubscribed", extent: 1013, intent: 59, workers: 2, busy: 5, wantVerdict: "saturated"},
		{name: "half free", extent: 4096, intent: 15, workers: 4, busy: 3, wantRanges: 8, wantWidth: 512},
		{name: "counted", extent: 4096, intent: 15, workers: 4, count: true, busy: 1, wantVerdict: "counted"},
		{name: "scatter", kind: "scatter", extent: 4096, intent: 15, workers: 2, busy: 1, wantVerdict: "scatter"},
		{name: "scatter under override", kind: "scatter", extent: 4096, intent: 15, workers: 2, morsel: 1, busy: 1, wantVerdict: "scatter"},
		// Par.Morsel overrides everything else the rule would have said.
		{name: "override cuts small", extent: 100, intent: 1, workers: 2, morsel: 1, busy: 2, wantRanges: 100, wantWidth: 1},
		{name: "override cuts counted", extent: 4096, intent: 15, workers: 4, morsel: 512, count: true, busy: 1, wantRanges: 8, wantWidth: 512},
		{name: "override covers extent", extent: 4096, intent: 15, workers: 4, morsel: 16384, busy: 1, wantVerdict: "morsel-override"},
	}
	for _, tc := range cases {
		f := shapeFrag(tc.kind, tc.extent, tc.intent, tc.locals)
		width, parts, verdict := cut(f, Par{Workers: tc.workers, Morsel: tc.morsel}, tc.count, tc.busy)
		// Participants: every free slot when the rule cuts, every worker
		// under the override, the submitter alone otherwise.
		wantParts := 1
		if tc.wantRanges > 0 {
			wantParts = tc.workers - (tc.busy - 1)
			if tc.morsel > 0 {
				wantParts = tc.workers
			}
		}
		if parts != wantParts {
			t.Errorf("%s: %d participants, want %d", tc.name, parts, wantParts)
		}
		ranges := 0
		if width > 0 {
			ranges = (tc.extent + width - 1) / width
		}
		if width != tc.wantWidth || ranges != tc.wantRanges || verdict != tc.wantVerdict {
			t.Errorf("%s: cut = %d ranges of %d, verdict %q; want %d of %d, %q",
				tc.name, ranges, width, verdict, tc.wantRanges, tc.wantWidth, tc.wantVerdict)
		}
	}
}

// TestSaturatedSubmittersPublishNothing: when as many submitters as there
// are worker slots arrive together, every one of them runs its fragment as
// one range — nothing is published, no pool worker wakes. Two hooks make
// "together" exact: fragment start holds each submitter, already counted in
// flight, until all have arrived, and the first work item holds it until all
// have decided their cut, so every cut sees the full house.
func TestSaturatedSubmittersPublishNothing(t *testing.T) {
	const (
		workers = 3
		n       = 1 << 16
	)
	k := busyKernel(n, 1)
	var arrived, decided sync.WaitGroup
	arrived.Add(workers)
	decided.Add(workers)
	faultinject.With(t, faultinject.Hooks{
		FragmentStart: func(string) { arrived.Done(); arrived.Wait() },
		Item: func(_ string, gid int) {
			if gid == 0 {
				decided.Done()
				decided.Wait()
			}
		},
	})
	before := SchedulerStats().Morsels
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		env := newEnv(k)
		bindIn(t, k, env, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fs FragStats
			if err := RunFragment(context.Background(), k.Frags[0], env, Par{Workers: workers}, &fs, false); err != nil {
				t.Error(err)
			}
			if fs.Workers != 1 || fs.Uncut != "saturated" {
				t.Errorf("workers=%d uncut=%q, want 1 and saturated", fs.Workers, fs.Uncut)
			}
		}()
	}
	wg.Wait()
	if d := SchedulerStats().Morsels - before; d != 0 {
		t.Errorf("%d morsels published by %d concurrent submitters with %d worker slots, want 0", d, workers, workers)
	}
	// Alone, the same fragment is cut.
	faultinject.Clear()
	env := newEnv(k)
	bindIn(t, k, env, n)
	var fs FragStats
	if err := RunFragment(context.Background(), k.Frags[0], env, Par{Workers: workers}, &fs, false); err != nil {
		t.Fatal(err)
	}
	if fs.Morsels != workers*cutPerParticipant || fs.Uncut != "" {
		t.Errorf("alone: morsels=%d uncut=%q, want %d ranges", fs.Morsels, fs.Uncut, workers*cutPerParticipant)
	}
	if got := sched.busy.Load(); got != 0 {
		t.Errorf("busy = %d with nothing running, want 0", got)
	}
}

// TestCountedRunIsOneDeterministicCut: the device-model classifier keeps a
// per-participant LRU of cache lines, so who claimed which range would show
// in the Near/Rand counts. A counted run is therefore never cut by the rule,
// and its record repeats exactly however many workers are allowed.
func TestCountedRunIsOneDeterministicCut(t *testing.T) {
	const n = 1 << 15
	k := &kernel.Kernel{}
	pos := k.AddBuf(kernel.BufDecl{Name: "pos", Kind: vector.Int, Size: n, Input: true})
	data := k.AddBuf(kernel.BufDecl{Name: "data", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
	r0, r1 := kernel.FirstFree, kernel.FirstFree+1
	k.Frags = append(k.Frags, &kernel.Fragment{Name: "gather", Extent: 4096, Intent: n / 4096, N: n,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: pos, Seq: true},
			{Op: kernel.ILoad, Dst: r1, A: r0, Buf: data},
			{Op: kernel.IStore, A: kernel.RegIdx, B: r1, Buf: out, Seq: true},
		}}}})
	posv, datav := make([]int64, n), make([]int64, n)
	for i := range posv {
		// Far strides, each visited three times running: far and hot lines.
		posv[i] = int64((i / 3 * 7919) % n)
		datav[i] = int64(i)
	}
	var want FragStats
	for run := 0; run < 20; run++ {
		env := newEnv(k)
		for name, v := range map[string][]int64{"pos": posv, "data": datav} {
			if err := env.bind(k, name, &Buffer{Kind: vector.Int, I: v}); err != nil {
				t.Fatal(err)
			}
		}
		var st Stats
		if err := runFrags(context.Background(), k, env, Par{Workers: 4}, &st); err != nil {
			t.Fatal(err)
		}
		fs := st.Frags[0]
		if fs.Workers != 1 || fs.Uncut != "counted" {
			t.Fatalf("run %d: workers=%d uncut=%q, want one participant, verdict counted", run, fs.Workers, fs.Uncut)
		}
		fs.Wall = 0
		if run == 0 {
			want = fs
			if want.RandAccesses == 0 || want.NearAccesses == 0 {
				t.Fatalf("kernel does not exercise the classifier: %+v", want)
			}
		} else if !reflect.DeepEqual(fs, want) {
			t.Fatalf("run %d: counted record differs from run 0:\n got %+v\nwant %+v", run, fs, want)
		}
	}
}
