package exec

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"voodoo/internal/faultinject"
	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

// busyKernel builds nfrags fragments that each run n work items of a few
// int ops over extent-parallel workers.
func busyKernel(n, nfrags int) *kernel.Kernel {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: n, Input: true})
	out := k.AddBuf(kernel.BufDecl{Name: "out", Kind: vector.Int, Size: n})
	r0, r1 := kernel.FirstFree, kernel.FirstFree+1
	names := []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"}
	for i := 0; i < nfrags; i++ {
		k.Frags = append(k.Frags, &kernel.Fragment{
			Name: names[i], Extent: n, Intent: 1, N: n,
			Loops: []kernel.Loop{{Body: []kernel.Instr{
				{Op: kernel.ILoad, Dst: r0, A: kernel.RegIdx, Buf: in, Seq: true},
				{Op: kernel.IBin, BOp: kernel.BAdd, Dst: r1, A: r0, B: r0},
				{Op: kernel.IStore, A: kernel.RegIdx, B: r1, Buf: out, Seq: true},
			}}},
		})
	}
	return k
}

func bindIn(t *testing.T, k *kernel.Kernel, env *Env, n int) {
	t.Helper()
	if err := env.bind(k, "in", &Buffer{Kind: vector.Int, I: make([]int64, n)}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelledContextAbortsBeforeWork(t *testing.T) {
	k := busyKernel(1024, 1)
	env := newEnv(k)
	bindIn(t, k, env, 1024)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := runFrags(ctx, k, env, Par{Workers: 4}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancelAbortsMultiFragmentRunEarly cancels the context from inside
// the first fragment's loop and asserts the run stops with
// context.Canceled before the later fragments start.
func TestCancelAbortsMultiFragmentRunEarly(t *testing.T) {
	n := 1 << 16
	k := busyKernel(n, 4)
	env := newEnv(k)
	bindIn(t, k, env, n)

	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	faultinject.With(t, faultinject.Hooks{
		FragmentStart: func(frag string) { started.Add(1) },
		Item: func(frag string, gid int) {
			if frag == "f0" && gid > 0 {
				cancel()
			}
		},
	})
	err := runFrags(ctx, k, env, Par{Workers: 4}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := started.Load(); got != 1 {
		t.Fatalf("%d fragments started, want only f0", got)
	}
}

func TestDeadlineLimitExpires(t *testing.T) {
	// Slow the loop down so the deadline trips mid-fragment. Install the
	// hooks first: With may wait for other hook-setting tests, and the
	// deadline below must not start ticking until the lock is held.
	faultinject.With(t, faultinject.Hooks{
		Item: func(frag string, gid int) { time.Sleep(3 * time.Millisecond) },
	})
	n := 1 << 12
	k := busyKernel(n, 1)
	env := newEnv(k)
	bindIn(t, k, env, n)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	before := exhaustedDeadline.Value()
	if err := runFrags(ctx, k, env, Par{Workers: 2}, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := exhaustedDeadline.Value() - before; got != 1 {
		t.Fatalf("deadline counted %d times, want 1", got)
	}
}

// TestPanicIsolatedToPanicError injects a panic mid-fragment in a worker
// goroutine and asserts the process survives with a *PanicError naming
// the fragment (run under -race in CI).
func TestPanicIsolatedToPanicError(t *testing.T) {
	n := 1 << 16
	k := busyKernel(n, 2)
	env := newEnv(k)
	bindIn(t, k, env, n)
	faultinject.With(t, faultinject.Hooks{
		Item: func(frag string, gid int) {
			if frag == "f1" {
				panic("injected kernel bug")
			}
		},
	})
	err := runFrags(context.Background(), k, env, Par{Workers: 4}, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Fragment != "f1" {
		t.Errorf("panic attributed to %q, want f1", pe.Fragment)
	}
	if pe.Value != "injected kernel bug" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "faultinject") {
		t.Errorf("stack does not show the panic site:\n%s", pe.Stack)
	}
}

func TestPanicIsolatedSequentialFragment(t *testing.T) {
	k := &kernel.Kernel{}
	in := k.AddBuf(kernel.BufDecl{Name: "in", Kind: vector.Int, Size: 8, Input: true})
	k.Frags = append(k.Frags, &kernel.Fragment{
		Name: "seq", Extent: 1, Intent: 8, N: 8,
		Loops: []kernel.Loop{{Body: []kernel.Instr{
			{Op: kernel.ILoad, Dst: kernel.FirstFree, A: kernel.RegIdx, Buf: in, Seq: true},
		}}},
	})
	env := newEnv(k)
	bindIn(t, k, env, 8)
	faultinject.With(t, faultinject.Hooks{
		Item: func(frag string, gid int) { panic("seq bug") },
	})
	err := runFrags(context.Background(), k, env, Par{Workers: 1}, nil)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Fragment != "seq" {
		t.Fatalf("err = %v, want *PanicError in seq", err)
	}
}

// TestParallelStopsAfterFailure checks that once one worker fails, the
// sibling workers abort at their next checkpoint instead of running their
// chunks to completion: with one worker panicking immediately and every
// other checkpoint sleeping, a full run would take minutes.
func TestParallelStopsAfterFailure(t *testing.T) {
	n := 1 << 20
	k := busyKernel(n, 1)
	env := newEnv(k)
	bindIn(t, k, env, n)
	faultinject.With(t, faultinject.Hooks{
		Item: func(frag string, gid int) {
			if gid == 0 {
				panic("first chunk fails")
			}
			time.Sleep(time.Millisecond)
		},
	})
	start := time.Now()
	err := runFrags(context.Background(), k, env, Par{Workers: 4}, nil)
	elapsed := time.Since(start)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	// Each surviving worker has ~256 checkpoints in its chunk; without
	// the abort the sleeps alone would exceed 750ms.
	if elapsed > 750*time.Millisecond {
		t.Fatalf("run took %v; sibling workers did not abort after failure", elapsed)
	}
}

func TestResourceGovernorMaxBytes(t *testing.T) {
	k := busyKernel(1024, 1) // wants a 1024-slot output buffer = 8KiB
	if _, err := NewEnv(k, Limits{MaxBytes: 4096}, nil); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("err = %v, want ErrResourceExhausted", err)
	}
	env, err := NewEnv(k, Limits{MaxBytes: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bindIn(t, k, env, 1024)
	if err := runFrags(context.Background(), k, env, Par{Workers: 2}, nil); err != nil {
		t.Fatalf("within budget: %v", err)
	}
}

func TestResourceGovernorMaxExtent(t *testing.T) {
	k := busyKernel(1024, 1)
	env, err := NewEnv(k, Limits{MaxExtent: 512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bindIn(t, k, env, 1024)
	if err := runFrags(context.Background(), k, env, Par{Workers: 2}, nil); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("err = %v, want ErrResourceExhausted", err)
	}
}

func TestInjectedAllocFailure(t *testing.T) {
	boom := errors.New("injected alloc failure")
	faultinject.With(t, faultinject.Hooks{
		Alloc: func(bytes int64) error { return boom },
	})
	k := busyKernel(16, 1)
	if _, err := NewEnv(k, Limits{}, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected failure", err)
	}
}

func TestRunUnchangedWithoutLimits(t *testing.T) {
	// An ungoverned, unpooled environment still computes the right thing.
	k := busyKernel(128, 1)
	env := newEnv(k)
	vals := make([]int64, 128)
	for i := range vals {
		vals[i] = int64(i)
	}
	if err := env.bind(k, "in", &Buffer{Kind: vector.Int, I: vals}); err != nil {
		t.Fatal(err)
	}
	if err := runFrags(context.Background(), k, env, Par{Workers: 3}, nil); err != nil {
		t.Fatal(err)
	}
	for i, v := range env.Bufs[1].I {
		if v != int64(2*i) {
			t.Fatalf("out[%d] = %d, want %d", i, v, 2*i)
		}
	}
}
