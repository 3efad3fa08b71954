package tpch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/exec"
	"voodoo/internal/faultinject"
	"voodoo/internal/metrics"
	"voodoo/internal/rel"
	"voodoo/internal/storage"
	"voodoo/internal/trace"
	"voodoo/internal/vector"
)

// cutCat is the SF 0.01 catalog the scheduler tests share: the scale whose
// fragment shapes DESIGN §12 measures (Q1's filter 1013 × 59, its grouped
// fold 64 × 934).
var cutCat = sync.OnceValue(func() *storage.Catalog { return Generate(Config{SF: 0.01, Seed: 42}) })

// bits renders every root vector of a plan run down to the bit: attribute by
// attribute, slot by slot, ε as "e".
func bits(vals map[core.Ref]*vector.Vector) string {
	refs := make([]int, 0, len(vals))
	for r := range vals {
		refs = append(refs, int(r))
	}
	sort.Ints(refs)
	var sb strings.Builder
	for _, r := range refs {
		v := vals[core.Ref(r)]
		names := append([]string(nil), v.Names()...)
		sort.Strings(names)
		for _, name := range names {
			c := v.Col(name)
			fmt.Fprintf(&sb, "v%d.%s:", r, name)
			for i := 0; i < c.Len(); i++ {
				switch {
				case !c.Valid(i):
					sb.WriteString(" e")
				case c.Kind() == vector.Int:
					fmt.Fprintf(&sb, " %x", c.Int(i))
				default:
					fmt.Fprintf(&sb, " %x", math.Float64bits(c.Float(i)))
				}
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestCutBitIdentity: however a fragment is cut, the answer is the same to
// the bit — work items write disjoint slots and folds combine only inside a
// work item. Every TPC-H query's assembled answer at Workers 2 and 4 equals
// the one-worker answer byte for byte, and every plan it compiled, run again
// under the cut rule and under one-item morsels, leaves the same root
// vectors as its one-worker run.
func TestCutBitIdentity(t *testing.T) {
	cat := cutCat()
	for _, num := range QueryNumbers {
		qf, err := Query(num)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		var wantBits []string
		for _, workers := range []int{1, 2, 4} {
			e := &rel.Engine{Cat: cat, Backend: rel.Compiled, Opt: compile.Options{Workers: workers}}
			var plans []*compile.Plan
			e.PlanSink = func(p *compile.Plan) { plans = append(plans, p) }
			res, _, err := qf(e)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", queryName(num), workers, err)
			}
			if got := formatResult(res); workers == 1 {
				want = got
			} else if got != want {
				t.Errorf("%s workers=%d: answer differs from workers=1:\ngot:\n%s\nwant:\n%s", queryName(num), workers, got, want)
			}
			if len(plans) == 0 {
				t.Fatalf("%s workers=%d: no plan reached the sink", queryName(num), workers)
			}
			for pi, p := range plans {
				for _, morsel := range []int{0, 1} {
					if workers == 1 && morsel == 1 {
						continue // one worker runs one range whatever the morsel
					}
					pres, err := p.RunWith(context.Background(), compile.RunOpts{MorselSize: morsel})
					if err != nil {
						t.Fatalf("%s plan %d workers=%d morsel=%d: %v", queryName(num), pi, workers, morsel, err)
					}
					got := bits(pres.Values)
					if workers == 1 {
						wantBits = append(wantBits, got)
					} else if got != wantBits[pi] {
						t.Errorf("%s plan %d workers=%d morsel=%d: root vectors differ from the one-worker run", queryName(num), pi, workers, morsel)
					}
				}
			}
		}
	}
}

// fragmentNamed returns the name of query num's one fragment of the given
// provenance kind and extent × intent shape: the scheduler tests pick a
// fragment by what it is, not by the SSA id lowering happens to number it.
func fragmentNamed(t *testing.T, num int, kind string, extent, intent int) string {
	t.Helper()
	names := fragmentsNamed(t, num, kind, extent, intent)
	if len(names) != 1 {
		t.Fatalf("%s: %d %s fragments of shape %dx%d (%v), want one", queryName(num), len(names), kind, extent, intent, names)
	}
	return names[0]
}

// fragmentsNamed returns the names of query num's fragments of the given
// provenance kind and extent × intent shape, at least one.
func fragmentsNamed(t *testing.T, num int, kind string, extent, intent int) []string {
	t.Helper()
	qf, err := Query(num)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	e := &rel.Engine{Cat: cutCat(), Backend: rel.Compiled, PlanSink: func(p *compile.Plan) {
		for _, f := range p.Kernel().Frags {
			if f.Prov.Kind == kind && f.Extent == extent && f.Intent == intent {
				names = append(names, f.Name)
			}
		}
	}}
	if _, _, err := qf(e); err != nil {
		t.Fatalf("%s: %v", queryName(num), err)
	}
	if len(names) == 0 {
		t.Fatalf("%s: no %s fragment of shape %dx%d", queryName(num), kind, extent, intent)
	}
	return names
}

// fragmentSteps runs query num once traced at the given worker count and
// returns its fragment steps by name.
func fragmentSteps(t *testing.T, num, workers int) map[string]trace.Step {
	t.Helper()
	qf, err := Query(num)
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string]trace.Step{}
	e := &rel.Engine{Cat: cutCat(), Backend: rel.Compiled, Opt: compile.Options{Workers: workers}}
	e.TraceSink = func(tr *trace.Trace) {
		for _, s := range tr.Steps {
			if s.Kind == trace.KindFragment {
				steps[s.Name] = s
			}
		}
	}
	if _, _, err := qf(e); err != nil {
		t.Fatalf("%s workers=%d: %v", queryName(num), workers, err)
	}
	return steps
}

// TestBigFragmentsSplit pins what the cut rule does to the fragments §12
// names. With two workers the big ones are cut into several ranges and a
// second participant takes some (a pool worker must wake in time for that,
// so the test allows it a few runs); a few-lane grouped fold is never cut
// into more ranges than participants, nor into ranges of one work item — the
// carried slice of a range dispatches once per iteration, however few lanes
// the range has — and a fragment left whole says why.
func TestBigFragmentsSplit(t *testing.T) {
	type shape struct {
		query          int
		kind           string
		extent, intent int
	}
	for _, s := range []shape{
		{4, "filter", 1013, 59}, {1, "group-fold", 64, 934}, {7, "filter", 1013, 59},
		// Q14's global fold, hierarchical: about grain (1013) runs of 59 rows.
		{14, "fold", 1013, 59},
	} {
		name := fragmentNamed(t, s.query, s.kind, s.extent, s.intent)
		helped := false
		for try := 0; try < 200 && !helped; try++ {
			st, ok := fragmentSteps(t, s.query, 2)[name]
			if !ok || st.Extent != s.extent || st.Intent != s.intent {
				t.Fatalf("%s: no fragment %s of shape %dx%d (got %+v)", queryName(s.query), name, s.extent, s.intent, st)
			}
			if st.Morsels < 2 || st.Uncut != "" {
				t.Fatalf("%s %s: morsels=%d uncut=%q, want a cut", queryName(s.query), name, st.Morsels, st.Uncut)
			}
			helped = st.Workers == 2
		}
		if !helped {
			t.Errorf("%s %s: cut, but no run in 200 reported workers=2", queryName(s.query), name)
		}
	}
	q20 := fragmentNamed(t, 20, "group-fold", 7, 8537)
	for _, workers := range []int{2, 4} {
		st := fragmentSteps(t, 20, workers)[q20]
		if st.Morsels < 2 || int(st.Morsels) > workers {
			t.Errorf("q20 %s workers=%d: cut into %d ranges, want 2..%d", q20, workers, st.Morsels, workers)
		}
	}
	// What is left whole carries the verdict; one worker carries none.
	for _, s := range []struct {
		shape
		uncut string
	}{
		{shape{6, "reduce", 1, 1013}, "extent-1"},
		{shape{14, "fold", 1, 1013}, "extent-1"}, // the second level of Q14's fold
		{shape{1, "mat", 6, 1}, "small"},         // the pivot list and the root relation
		// 3 × (2667 iterations + 8004 slots flushed): below the floor before
		// few-items (exec's TestCutRule) is asked.
		{shape{11, "group-fold", 3, 2667}, "small"},
		{shape{4, "scatter", 4096, 15}, "scatter"}, // a semi join's build repeats keys
	} {
		for _, name := range fragmentsNamed(t, s.query, s.kind, s.extent, s.intent) {
			if got := fragmentSteps(t, s.query, 2)[name].Uncut; got != s.uncut {
				t.Errorf("%s %s: uncut=%q, want %s", queryName(s.query), name, got, s.uncut)
			}
		}
	}
	for name, st := range fragmentSteps(t, 6, 1) {
		if st.Uncut != "" || st.Workers != 1 {
			t.Errorf("q6 %s at one worker: workers=%d uncut=%q, want 1 and no verdict", name, st.Workers, st.Uncut)
		}
	}
}

// TestSplitQ1FailsLikeOneWorker: cancellation, an injected panic and a
// context deadline in the middle of Q1's grouped fold return the same typed
// error whether the fragment runs as one range or split over two
// participants, the deadline counts once as a resource exhaustion (the
// others not at all), the run's arena goes back to the pool, and no job stays
// published. The hooks leave every fragment on the batch tier a query runs
// on: the failing fragment fails there, not on the interpreter.
func TestSplitQ1FailsLikeOneWorker(t *testing.T) {
	frag := fragmentNamed(t, 1, "group-fold", 64, 934)
	q1, err := Plan(1, cutCat())
	if err != nil {
		t.Fatal(err)
	}
	// setup returns the run's context and what the hook does mid-fragment.
	failures := []struct {
		name  string
		setup func() (context.Context, func())
		want  string
		is    func(err error) bool
	}{
		{"cancel", func() (context.Context, func()) {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			return ctx, cancel
		}, "context.Canceled", func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"panic", func() (context.Context, func()) {
			return context.Background(), func() { panic("injected mid-fragment bug") }
		}, "*exec.PanicError in " + frag, func(err error) bool {
			var pe *exec.PanicError
			return errors.As(err, &pe) && pe.Fragment == frag
		}},
		{"deadline", func() (context.Context, func()) {
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			t.Cleanup(cancel)
			return ctx, func() { time.Sleep(350 * time.Millisecond) }
		}, "context.DeadlineExceeded", func(err error) bool { return errors.Is(err, context.DeadlineExceeded) }},
	}
	deadlines := metrics.Default.CounterVec("voodoo_resource_exhausted_total", "", "kind").With("deadline")
	// The hooks are process-global: hold the hook-setting tests' lock.
	faultinject.With(t, faultinject.Hooks{})
	for _, f := range failures {
		for _, workers := range []int{1, 2} {
			pool := vector.NewPool(0)
			e := &rel.Engine{Cat: cutCat(), Backend: rel.Compiled, Pool: pool, Opt: compile.Options{Workers: workers}}
			ctx, hook := f.setup()
			pr, err := e.Prepare(q1)
			if err != nil {
				t.Fatal(err)
			}
			var claims, checkpoints atomic.Int64
			faultinject.Set(faultinject.Hooks{
				// After as many checkpoints as there are participants: the
				// fragment is under way.
				Item: func(name string, _ int) {
					if name == frag && checkpoints.Add(1) > int64(workers) {
						hook()
					}
				},
				MorselClaim: func(name string, _ int) {
					if name == frag {
						claims.Add(1)
					}
				},
			})
			i0, b0, _ := fragmentPaths()
			d0 := deadlines.Value()
			_, _, err = e.RunPrepared(ctx, pr)
			faultinject.Clear()
			i1, b1, _ := fragmentPaths()
			if !f.is(err) {
				t.Errorf("%s workers=%d: err = %v (%T), want %s", f.name, workers, err, err, f.want)
			}
			want := int64(0)
			if f.name == "deadline" {
				want = 1
			}
			if got := deadlines.Value() - d0; got != want {
				t.Errorf("%s workers=%d: deadline counted %d times, want %d", f.name, workers, got, want)
			}
			if i1 != i0 || b1 == b0 {
				t.Errorf("%s workers=%d: %d fragments interpreted, %d batched, want none and some", f.name, workers, i1-i0, b1-b0)
			}
			if split := claims.Load() > 0; split != (workers > 1) {
				t.Errorf("%s workers=%d: %d ranges of %s claimed", f.name, workers, claims.Load(), frag)
			}
			if live := pool.Stats().LiveArenas; live != 0 {
				t.Errorf("%s workers=%d: %d arenas not released", f.name, workers, live)
			}
			if st := exec.SchedulerStats(); st.ActiveJobs != 0 {
				t.Errorf("%s workers=%d: %d jobs still published", f.name, workers, st.ActiveJobs)
			}
		}
	}
}
