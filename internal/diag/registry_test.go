package diag

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"voodoo/internal/telemetry"
	"voodoo/internal/trace"
)

// run registers a query with the given text and finishes it after the
// given execution time — a whole request, as the serving path drives it.
func run(r *QueryRegistry, sql string, exec time.Duration) *telemetry.QueryRecord {
	q := &telemetry.QueryRecord{ID: telemetry.MintQueryID(), SQL: sql}
	r.Begin(q)
	q.Exec = exec
	r.Finish(q)
	return q
}

// TestSlowRingRetainsWorst: the registry keeps exactly the N slowest
// finished queries by execution time, sorted slowest first, and evicts
// the fastest when full.
func TestSlowRingRetainsWorst(t *testing.T) {
	r := NewQueryRegistry(3, 0)
	for _, w := range []time.Duration{50, 10, 90, 30, 70} {
		run(r, "", w)
	}
	got := r.Slow()
	if len(got) != 3 {
		t.Fatalf("retained %d entries, want 3", len(got))
	}
	for i, want := range []int64{90, 70, 50} {
		if got[i].WallNS != want {
			t.Errorf("slot %d: wall %d, want %d", i, got[i].WallNS, want)
		}
	}
	// An entry faster than everything retained is dropped.
	run(r, "", 1)
	if got := r.Slow(); len(got) != 3 || got[2].WallNS != 50 {
		t.Errorf("fast entry displaced a slower one: %+v", got)
	}
}

// TestRecentRing: the most-recent ring evicts the oldest record, a record
// refused before execution is retained there without ever entering the
// slow ring, and a negative capacity retains nothing.
func TestRecentRing(t *testing.T) {
	r := NewQueryRegistry(4, 2)
	a, b := run(r, "a", 1), run(r, "b", 1)
	refused := &telemetry.QueryRecord{ID: telemetry.MintQueryID(), Status: 503, Kind: "shed-memory"}
	r.Finish(refused) // evicts a
	if _, ok := r.Lookup(a.ID.String()); ok {
		t.Error("oldest record not evicted")
	}
	for _, q := range []*telemetry.QueryRecord{b, refused} {
		if got, ok := r.Lookup(q.ID.String()); !ok || got != q {
			t.Errorf("record %s lost", q.ID)
		}
	}
	if ids := r.RecentIDs(); len(ids) != 2 || ids[0] != refused.ID.String() || ids[1] != b.ID.String() {
		t.Errorf("RecentIDs = %v, want the refused request then b", ids)
	}
	if len(r.Slow()) != 2 || r.ActiveCount() != 0 {
		t.Errorf("a refused request entered the slow ring or the active set: %+v", r.Slow())
	}
	for _, bad := range []string{"", "xyz", a.ID.String() + "00"} {
		if _, ok := r.Lookup(bad); ok {
			t.Errorf("Lookup(%q) found a record", bad)
		}
	}

	off := NewQueryRegistry(4, -1)
	q := run(off, "a", 1)
	if _, ok := off.Lookup(q.ID.String()); ok || len(off.RecentIDs()) != 0 {
		t.Error("a disabled recent ring retained a record")
	}
}

// TestRecentRingSharedTraceID: requests of one distributed trace share a
// query id. Evicting the older one must not orphan the newer one's index
// entry — every id RecentIDs lists has to be answerable by Lookup.
func TestRecentRingSharedTraceID(t *testing.T) {
	r := NewQueryRegistry(4, 4)
	shared := telemetry.MintQueryID()
	first := &telemetry.QueryRecord{ID: shared, SQL: "first"}
	second := &telemetry.QueryRecord{ID: shared, SQL: "second"}
	r.Finish(first)
	r.Finish(second)
	for i := 0; i < 3; i++ { // the first of them evicts `first`
		run(r, "filler", 1)
	}
	got, ok := r.Lookup(shared.String())
	if !ok || got != second {
		t.Fatalf("Lookup after the older sharer was evicted = %v, %v; want the newer record", got, ok)
	}
	ids := r.RecentIDs()
	if len(ids) != 4 {
		t.Fatalf("RecentIDs lists %d ids, want 4: %v", len(ids), ids)
	}
	for _, id := range ids {
		if _, ok := r.Lookup(id); !ok {
			t.Errorf("RecentIDs lists %s but Lookup cannot find it", id)
		}
	}
}

// TestRegistryLifecycle: Begin/Observe/Finish move a query from the
// active view into the slow ring with its accumulated progress.
func TestRegistryLifecycle(t *testing.T) {
	r := NewQueryRegistry(4, 0)
	q := &telemetry.QueryRecord{
		ID: telemetry.MintQueryID(), SQL: "SELECT 1",
		QueueWait: time.Millisecond, Deadline: time.Second, PlanLookup: time.Microsecond, Cached: true,
	}
	r.Begin(q)
	if n := r.ActiveCount(); n != 1 {
		t.Fatalf("ActiveCount = %d, want 1", n)
	}
	q.Observe(trace.Step{Kind: trace.KindBind, Name: "lineitem.l_quantity"})
	q.Observe(trace.Step{Kind: trace.KindFragment, Name: "sel_0", Items: 100, MaterializedBytes: 800})

	act := r.Active()
	if len(act) != 1 {
		t.Fatalf("Active() returned %d queries", len(act))
	}
	a := act[0]
	if a.SQL != "SELECT 1" || a.StepsDone != 2 || a.Items != 100 ||
		a.MaterializedBytes != 800 || a.LastStep != "fragment sel_0" {
		t.Errorf("bad active snapshot: %+v", a)
	}
	if a.QueryID != q.ID.String() || a.QueueNS != 1e6 || a.DeadlineNS != 1e9 || a.PlanLookupNS != 1e3 || !a.CachedPlan {
		t.Errorf("active snapshot lost what was set before Begin: %+v", a)
	}
	if a.Cancel != fmt.Sprintf("POST /queries/cancel?id=%d", a.ID) {
		t.Errorf("bad cancel action %q", a.Cancel)
	}

	q.Exec, q.Traces = time.Millisecond, []*trace.Trace{{Backend: "compiled"}}
	r.Finish(q)
	if r.ActiveCount() != 0 {
		t.Errorf("query still active after Finish")
	}
	slow := r.Slow()
	if len(slow) != 1 || slow[0].SQL != "SELECT 1" || len(slow[0].Traces) != 1 ||
		slow[0].ID != a.ID || slow[0].Items != 100 || slow[0].WallNS != 1e6 || !slow[0].CachedPlan {
		t.Errorf("slow ring did not retain the finished query: %+v", slow)
	}
}

// TestRegistryCancel: Cancel fires the registered CancelFunc exactly for
// the named id and reports unknown ids.
func TestRegistryCancel(t *testing.T) {
	r := NewQueryRegistry(4, 0)
	ctx, cancel := context.WithCancel(context.Background())
	q := &telemetry.QueryRecord{SQL: "SELECT slow", Cancel: cancel}
	r.Begin(q)
	if r.Cancel(q.Seq + 99) {
		t.Errorf("cancelling an unknown id reported success")
	}
	if !r.Cancel(q.Seq) {
		t.Fatalf("cancelling an active id reported failure")
	}
	select {
	case <-ctx.Done():
	default:
		t.Errorf("cancel action did not fire the CancelFunc")
	}
	// The query stays listed until its runner unwinds.
	if r.ActiveCount() != 1 {
		t.Errorf("cancelled query disappeared before Finish")
	}
	q.Fail(499, "canceled", ctx.Err())
	r.Finish(q)
	if got := r.Slow()[0].Error; got != "context canceled" {
		t.Errorf("slow entry error = %q", got)
	}
}

// TestRegistryConcurrent hammers the registry from many writer and
// reader goroutines — the -race gate demanded by the acceptance criteria:
// every view is rendered from records the writers are still filling or
// have just published.
func TestRegistryConcurrent(t *testing.T) {
	r := NewQueryRegistry(8, 16)
	const workers, each = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: render the active, slow and span views continuously.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Active()
					slow := r.Slow()
					for i := 1; i < len(slow); i++ {
						if slow[i].WallNS > slow[i-1].WallNS {
							t.Errorf("slow ring not sorted at %d: %d > %d", i, slow[i].WallNS, slow[i-1].WallNS)
						}
					}
					r.ActiveCount()
					for _, id := range r.RecentIDs() {
						if q, ok := r.Lookup(id); ok {
							telemetry.BuildSpans(q)
						}
					}
				}
			}
		}()
	}
	// A canceller: fires cancel actions at whatever ids are live.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, q := range r.Active() {
					r.Cancel(q.ID)
				}
			}
		}
	}()

	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < each; i++ {
				_, cancel := context.WithCancel(context.Background())
				q := &telemetry.QueryRecord{ID: telemetry.MintQueryID(), SQL: fmt.Sprintf("SELECT %d", w), Cancel: cancel}
				r.Begin(q)
				q.Observe(trace.Step{Kind: trace.KindFragment, Name: "f", Items: 1, MaterializedBytes: 8})
				q.Observe(trace.Step{Kind: trace.KindOutput, Name: "v0", Items: 1})
				q.Exec, q.Wall = time.Duration(i*(w+1)), time.Duration(i*(w+1))
				q.Traces = []*trace.Trace{{Backend: "compiled"}}
				if i%7 == 0 {
					q.Fail(500, "internal", errors.New("boom"))
				}
				r.Finish(q)
				cancel()
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	if r.ActiveCount() != 0 {
		t.Errorf("%d queries leaked in the active set", r.ActiveCount())
	}
	slow := r.Slow()
	if len(slow) != 8 {
		t.Fatalf("slow ring holds %d entries, want its capacity 8", len(slow))
	}
	// The slowest retained entry must be the global maximum offered:
	// 199 * 8 from the w=7 writer.
	if slow[0].WallNS != (each-1)*workers {
		t.Errorf("slowest retained = %d, want %d", slow[0].WallNS, (each-1)*workers)
	}
	if n := len(r.RecentIDs()); n != 16 {
		t.Errorf("recent ring lists %d ids, want its capacity 16", n)
	}
}

// TestActiveElapsed: elapsed time in snapshots moves forward.
func TestActiveElapsed(t *testing.T) {
	r := NewQueryRegistry(2, 0)
	q := &telemetry.QueryRecord{SQL: "SELECT now"}
	r.Begin(q)
	time.Sleep(10 * time.Millisecond)
	if e := r.Active()[0].ElapsedNS; e < int64(5*time.Millisecond) {
		t.Errorf("elapsed %dns implausibly small", e)
	}
	r.Finish(q)
}
