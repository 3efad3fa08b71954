package rel

import (
	"context"
	"errors"
	"testing"
	"time"

	"voodoo/internal/exec"
	"voodoo/internal/faultinject"
)

func hardeningQuery() Query {
	return Query{Root: GroupAgg{
		In:   Scan{Table: "ord", Cols: []string{"total"}},
		Aggs: []AggSpec{{Func: Sum, E: C("total"), As: "s"}},
	}}
}

func TestEngineRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, e := range engines(testCatalog()) {
		e.BaseContext = ctx
		if _, _, err := e.Run(hardeningQuery()); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

func TestEngineDeadlineLimit(t *testing.T) {
	faultinject.With(t, faultinject.Hooks{
		FragmentStart: func(frag string) { time.Sleep(5 * time.Millisecond) },
	})
	e := &Engine{Cat: testCatalog(), Backend: Compiled,
		Limits: exec.Limits{Deadline: time.Now().Add(time.Millisecond)}}
	// The deadline has passed before the first fragment boundary check.
	time.Sleep(2 * time.Millisecond)
	if _, _, err := e.Run(hardeningQuery()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
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
