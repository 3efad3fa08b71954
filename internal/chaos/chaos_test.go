package chaos

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"voodoo/internal/faultinject"
	"voodoo/internal/metrics"
	"voodoo/internal/telemetry"
	"voodoo/internal/tpch"
)

// TestChaosStorm runs the full storm: concurrent clients, injected
// allocation failures / panics / slowness, client cancellations and
// disconnects, and periodic hot catalog reloads — then drains and checks
// the invariants: no corrupted 200 responses, no stuck registry entries,
// no leaked pool arenas.
//
// CI runs this under -race with VOODOO_CHAOS_DURATION to size the storm;
// locally it defaults to a 2s storm.
func TestChaosStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm skipped in -short mode")
	}
	dur := 2 * time.Second
	if env := os.Getenv("VOODOO_CHAOS_DURATION"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("bad VOODOO_CHAOS_DURATION %q: %v", env, err)
		}
		dur = d
	}

	// Storm manages its own hooks via Set/Clear; holding the faultinject
	// test lock keeps other hook-setting tests out for the duration.
	faultinject.With(t, faultinject.Hooks{})

	gen := tpch.Config{SF: 0.01, Seed: 42}
	rep, err := Storm(Config{
		Cat:       tpch.Generate(gen),
		ReloadCat: tpch.Generate(gen),
		Duration:  dur,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("storm: %d requests (%d ok, %d failed, %d client-aborted), %d reloads",
		rep.Requests, rep.OK, rep.Failed, rep.ClientAbort, rep.Reloads)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("storm issued no requests")
	}
	// CI sizes the storm and pins a request floor so the invariants were
	// actually exercised at scale, not vacuously on a handful of queries.
	if env := os.Getenv("VOODOO_CHAOS_MIN_REQUESTS"); env != "" {
		min, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("bad VOODOO_CHAOS_MIN_REQUESTS %q: %v", env, err)
		}
		if rep.Requests < min {
			t.Errorf("storm issued %d requests, want >= %d", rep.Requests, min)
		}
	}
	if rep.OK == 0 {
		t.Error("no request survived the storm — fault rates drowned the signal")
	}
	if rep.Failed == 0 && rep.ClientAbort == 0 {
		t.Error("no request failed or aborted — the storm injected nothing")
	}
	// The scheduler gate (no worker, job or busy slot left) means something
	// only after fragments that really split and were really helped.
	if rep.Morsels == 0 {
		t.Error("no fragment of the storm was cut into ranges — the scheduler gate held vacuously")
	}
	// The event log ran at sample rate 1, so the storm must have pushed
	// events through it (Err already asserted none were lost).
	if rep.EventsAccepted == 0 {
		t.Error("storm produced no query events — the telemetry sink was not exercised")
	}
	t.Logf("events: %d accepted, %d written, %d dropped",
		rep.EventsAccepted, rep.EventsWritten, rep.EventsDropped)
}

// blockableWriter lets the backpressure test wedge the event-log writer
// goroutine mid-write and release it later.
type blockableWriter struct {
	gate chan struct{}
	n    atomic.Int64
}

func (w *blockableWriter) Write(p []byte) (int, error) {
	<-w.gate
	w.n.Add(int64(bytes.Count(p, []byte("\n"))))
	return len(p), nil
}

// TestEventLogBackpressure wedges the sink's writer behind a blocked
// io.Writer and hammers Emit: the serving path must never block — the
// overflow lands in the drop counter — and once the writer is released,
// Close still delivers every accepted event.
func TestEventLogBackpressure(t *testing.T) {
	w := &blockableWriter{gate: make(chan struct{})}
	l := telemetry.NewEventLog(telemetry.EventLogConfig{
		W: w, Buffer: 8, SampleRate: 1, Registry: metrics.NewRegistry(),
	})

	// 4 emitters × 64 events against a buffer of 8 and a wedged writer.
	const emitters, perEmitter = 4, 64
	start := time.Now()
	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				l.Emit(&telemetry.QueryRecord{ID: telemetry.MintQueryID(), Status: 200, Wall: 1})
			}
		}(e)
	}
	wg.Wait()
	if blocked := time.Since(start); blocked > 5*time.Second {
		t.Errorf("emitters took %v against a wedged writer — Emit blocked", blocked)
	}

	total := l.Accepted() + l.Dropped()
	if total != emitters*perEmitter {
		t.Errorf("accounting leak: accepted %d + dropped %d != emitted %d",
			l.Accepted(), l.Dropped(), emitters*perEmitter)
	}
	if l.Dropped() == 0 {
		t.Error("no drops despite a wedged writer and a full buffer")
	}

	// Release the writer: Close must deliver everything accepted.
	close(w.gate)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Written() != l.Accepted() {
		t.Errorf("drain lost events: accepted %d, written %d", l.Accepted(), l.Written())
	}
	if got := w.n.Load(); got != l.Written() {
		t.Errorf("writer saw %d lines, sink counted %d", got, l.Written())
	}
}
