package exec

import (
	"context"
	"errors"
	"fmt"
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
// test measures the morsel scheduler against.
func staticChunkRun(t *testing.T, f *kernel.Fragment, env *Env, workers int) {
	t.Helper()
	nregs := kernel.Reg(f.NumRegs())
	chunk := (f.Extent + workers - 1) / workers
	var stop atomic.Bool
	var wg sync.WaitGroup
	for lo := 0; lo < f.Extent; lo += chunk {
		hi := min(lo+chunk, f.Extent)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			w := newWorker(context.Background(), f, env, nregs, false, &stop, nil)
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
		delay   = 5 * time.Millisecond
	)
	k := busyKernel(n, 1)
	f := k.Frags[0]
	env := NewEnv(k)
	bindIn(t, k, env, n)

	// All the cost sits in the first quarter — exactly static worker 0's
	// chunk. The hook fires at checkpoint cadence, so the expensive region
	// holds ~32 sleeps: ~160ms serialized, ~40ms spread over 4 workers.
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
	env := NewEnv(k)
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
		env := NewEnv(k)
		if err := env.Bind(k, "in", &Buffer{Kind: vector.Int, I: vals}); err != nil {
			t.Fatal(err)
		}
		if err := Run(context.Background(), k, env, Par{Workers: 4, Morsel: morsel}, nil); err != nil {
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
				env := NewEnv(k)
				if err := env.Bind(k, "in", &Buffer{Kind: vector.Int, I: vals}); err != nil {
					errc <- err
					return
				}
				if err := Run(context.Background(), k, env, Par{Workers: 4, Morsel: 512}, nil); err != nil {
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
		env := NewEnv(k)
		bindIn(t, k, env, n)
		if err := Run(context.Background(), k, env, Par{Workers: 4, Morsel: 512}, nil); err != nil {
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
		env := NewEnv(k)
		bindIn(t, k, env, n)
		if err := Run(context.Background(), k, env, Par{Workers: 4, Morsel: 512}, nil); err != nil {
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
	env := NewEnv(k)
	bindIn(t, k, env, n)
	var claims atomic.Int64
	faultinject.With(t, faultinject.Hooks{
		MorselClaim: func(frag string, morsel int) {
			claims.Add(1)
			if morsel == 3 {
				panic("injected claim-boundary bug")
			}
		},
	})
	err := Run(context.Background(), k, env, Par{Workers: 4, Morsel: 1024}, nil)
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
