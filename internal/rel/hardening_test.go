package rel

import (
	"context"
	"errors"
	"testing"
	"time"

	"voodoo/internal/exec"
	"voodoo/internal/faultinject"
	"voodoo/internal/metrics"
)

func hardeningQuery() Query {
	return Query{Root: GroupAgg{
		In:   Scan{Table: "ord", Cols: []string{"total"}},
		Aggs: []AggSpec{{Func: Sum, E: C("total"), As: "s"}},
	}}
}

// runCtx prepares q and runs it under ctx.
func runCtx(ctx context.Context, e *Engine, q Query) (*Result, *exec.Stats, error) {
	pr, err := e.Prepare(q)
	if err != nil {
		return nil, nil, err
	}
	return e.RunPrepared(ctx, pr)
}

func TestEngineRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, e := range engines(testCatalog()) {
		if _, _, err := runCtx(ctx, e, hardeningQuery()); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestEngineDeadlineLimit times a query out on every backend: each run fails
// with the context's error and counts once as a deadline exhaustion.
func TestEngineDeadlineLimit(t *testing.T) {
	deadlines := metrics.Default.CounterVec("voodoo_resource_exhausted_total", "", "kind").With("deadline")
	for name, e := range engines(testCatalog()) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		// The deadline has passed before the first boundary check. Wait for
		// the context to say so: on a loaded box its timer can fire well
		// after the deadline, and until then Err is nil.
		<-ctx.Done()
		before := deadlines.Value()
		_, _, err := runCtx(ctx, e, hardeningQuery())
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", name, err)
		}
		if got := deadlines.Value() - before; got != 1 {
			t.Errorf("%s: deadline counted %d times, want 1", name, got)
		}
	}
}

func TestEngineGovernorMaxBytes(t *testing.T) {
	// A grouped aggregate allocates partition/fold buffers; a 64-byte
	// budget cannot hold them.
	q := Query{Root: GroupAgg{
		In:   Scan{Table: "ord", Cols: []string{"total", "prio"}},
		Keys: []string{"prio"},
		Aggs: []AggSpec{{Func: Sum, E: C("total"), As: "s"}},
	}}
	e := &Engine{Cat: testCatalog(), Backend: Compiled,
		Limits: exec.Limits{MaxBytes: 64}}
	if _, _, err := e.Run(q); !errors.Is(err, exec.ErrResourceExhausted) {
		t.Fatalf("err = %v, want ErrResourceExhausted", err)
	}
	// The same query under a generous budget succeeds.
	e.Limits = exec.Limits{MaxBytes: 1 << 24}
	if _, _, err := e.Run(q); err != nil {
		t.Fatalf("within budget: %v", err)
	}
}

func TestEnginePanicIsolated(t *testing.T) {
	faultinject.With(t, faultinject.Hooks{
		Item: func(frag string, gid int) { panic("injected engine bug") },
	})
	e := &Engine{Cat: testCatalog(), Backend: Compiled}
	_, _, err := e.Run(hardeningQuery())
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *exec.PanicError", err, err)
	}
}
