// Package trace is the observability layer of the execution stack: a
// per-query Trace records, per plan step and per fragment, wall time, work
// items, worker utilization, and the bytes allocated and materialized at
// fragment seams — the quantities the paper's Figures 14–16 argue about
// (fusion, empty-slot suppression, virtual scatter).
//
// Collection is opt-in and costs one record per plan step: a trace never
// turns on the executor's per-item event counting (that is the figure
// harness's RunOpts.CollectStats) and never changes which code runs a
// fragment. The only always-on instrumentation is one atomic add per
// fragment and per query (see CountQuery, CountFragment). Traces are
// per-query objects owned by their caller, so concurrent queries on one
// engine never share mutable trace state.
package trace

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"strconv"
	"strings"
	"time"

	"voodoo/internal/metrics"
)

// Step kinds. Fragment and bulk steps come from the compiling backend;
// stmt steps from the interpreter; bind/persist/output are plan plumbing.
const (
	KindFragment = "fragment"
	KindBulk     = "bulk"
	KindBind     = "bind"
	KindPersist  = "persist"
	KindOutput   = "output"
	KindStmt     = "stmt"
)

// Step is the trace record of one plan step (one fragment, bulk step, or
// interpreted statement).
type Step struct {
	Index int    `json:"index"`
	Kind  string `json:"kind"`
	Name  string `json:"name"`

	// Stmts lists the SSA statement ids fused into this step — more than
	// one means the compiler fused operators into a single fragment.
	Stmts []int `json:"stmts,omitempty"`
	// Fused mirrors len(Stmts) > 1 for quick filtering.
	Fused bool `json:"fused,omitempty"`

	// Fusion decision flags (compiling backend only).
	Suppressed bool `json:"empty_slot_suppression,omitempty"`
	Virtual    bool `json:"virtual_scatter,omitempty"`
	Predicated bool `json:"predicated,omitempty"`

	// Specialized records the geometry a fragment step's batch program ran
	// in: "batch" (tiles) or "interp" (element order, one element at a
	// time).
	Specialized string `json:"specialized,omitempty"`
	// Tile is the geometry of a batch fragment's first tile, "LxK": L work
	// items side by side × K consecutive iterations of each in one
	// primitive call. 1013x1 is a step of lock-step lanes; 1x1024 a single
	// work item batched along its iterations.
	Tile string `json:"tile,omitempty"`
	// AccWide and AccCarried count the tiles of a batch fragment whose
	// scratch reductions (a grouped fold's table updates) ran one primitive
	// each, and those that fell back to the iteration-by-iteration carried
	// pass because their slots met. Both zero when the fragment has none.
	AccWide    int64 `json:"acc_wide,omitempty"`
	AccCarried int64 `json:"acc_carried,omitempty"`
	// Early is the number of guard conjuncts a batch fragment's tiles applied
	// ahead of their guard (early points); zero in element order and when
	// the run's buffers missed what the points need.
	Early int `json:"early,omitempty"`

	// Control-vector shape of a fragment: Extent parallel work items,
	// Intent sequential iterations each, over N guarded elements.
	Extent  int  `json:"extent,omitempty"`
	Intent  int  `json:"intent,omitempty"`
	N       int  `json:"n,omitempty"`
	Strided bool `json:"strided,omitempty"`

	WallNS  int64 `json:"wall_ns"`
	Workers int   `json:"workers,omitempty"`
	// Morsels is the number of scheduling morsels a parallel fragment was
	// split into; Imbalance is the busiest participant's morsel count over
	// an even share (1.0 = balanced).
	Morsels   int64   `json:"morsels,omitempty"`
	Imbalance float64 `json:"imbalance,omitempty"`
	// Uncut says why a fragment ran on one participant although the run's
	// worker count allowed more — the scheduler's verdict: "extent-1",
	// "scatter", "small", "few-items", "saturated", "counted" or
	// "morsel-override".
	Uncut string `json:"uncut,omitempty"`
	// Items is the number of loop iterations (work items) executed.
	Items int64 `json:"items"`
	// MaterializedBytes counts the bytes this step wrote at a fragment
	// seam (stores into kernel buffers, bulk-step outputs, interpreter
	// statement outputs).
	MaterializedBytes int64 `json:"materialized_bytes"`
	// AllocBytes counts buffer bytes this step allocated at run time
	// (bulk-step outputs; fragment buffers are allocated up front and
	// appear in the trace's AllocBytes total).
	AllocBytes int64 `json:"alloc_bytes,omitempty"`

	// FoldRuns counts aggregation runs produced by fold steps;
	// ScatterItems counts elements moved by materialized scatters.
	// A virtual scatter moves nothing — that is the point.
	FoldRuns     int64 `json:"fold_runs,omitempty"`
	ScatterItems int64 `json:"scatter_items,omitempty"`
}

// Acc renders the scratch-reduction tile counts as "W/T": W of the T tiles
// that had any ran them wide.
func (s *Step) Acc() string {
	return fmt.Sprintf("%d/%d", s.AccWide, s.AccWide+s.AccCarried)
}

// Trace is the execution record of one query. It is owned by the caller
// that asked for it and is never shared.
type Trace struct {
	Query string `json:"query,omitempty"`
	// Backend names the engine that ran the query: "compiled",
	// "compiled-interp" (every fragment in element order), "bulk-compiled" or
	// "interpreted".
	Backend string          `json:"backend"`
	Options map[string]bool `json:"options,omitempty"`

	WallNS int64 `json:"wall_ns"`
	// AllocBytes is the query's total governed buffer allocation.
	AllocBytes int64  `json:"alloc_bytes"`
	Steps      []Step `json:"steps"`

	// Totals over Steps, computed by Finish.
	Fragments         int   `json:"fragments"`
	BulkSteps         int   `json:"bulk_steps"`
	Items             int64 `json:"items"`
	MaterializedBytes int64 `json:"materialized_bytes"`
	FoldRuns          int64 `json:"fold_runs"`
	ScatterItems      int64 `json:"scatter_items"`

	// OnStep, when set, receives each step synchronously as Add records
	// it — while the query is still running. This is the live-progress
	// feed of the diagnostics server's /queries endpoint. The observer
	// must be cheap and must not retain the Step's slices past the call.
	OnStep Observer `json:"-"`
}

// Observer receives completed steps of an in-flight query. Traced runs
// pick it up from their context (WithObserver), so callers
// that only have a context — an HTTP request serving a query — can watch
// progress without new plumbing through the backends.
type Observer func(Step)

type observerKey struct{}

// WithObserver returns a context carrying o.
func WithObserver(ctx context.Context, o Observer) context.Context {
	return context.WithValue(ctx, observerKey{}, o)
}

// ObserverFrom extracts the step observer carried by ctx, or nil.
func ObserverFrom(ctx context.Context) Observer {
	o, _ := ctx.Value(observerKey{}).(Observer)
	return o
}

// Add appends a step, assigning its index, and streams it to the
// trace's observer when one is attached.
func (t *Trace) Add(s Step) {
	s.Index = len(t.Steps)
	t.Steps = append(t.Steps, s)
	if t.OnStep != nil {
		t.OnStep(s)
	}
}

// Finish totals the steps, records the query wall time, and folds the
// query into the process-wide traced-query counters.
func (t *Trace) Finish(wall time.Duration) {
	t.WallNS = wall.Nanoseconds()
	t.Fragments, t.BulkSteps = 0, 0
	t.Items, t.MaterializedBytes, t.FoldRuns, t.ScatterItems = 0, 0, 0, 0
	for i := range t.Steps {
		s := &t.Steps[i]
		switch s.Kind {
		case KindFragment:
			t.Fragments++
		case KindBulk:
			t.BulkSteps++
		}
		t.Items += s.Items
		t.MaterializedBytes += s.MaterializedBytes
		t.FoldRuns += s.FoldRuns
		t.ScatterItems += s.ScatterItems
	}
	cTraced.Inc()
	cItems.Add(t.Items)
	cAllocated.Add(t.AllocBytes)
	cMaterialized.Add(t.MaterializedBytes)
	cFoldRuns.Add(t.FoldRuns)
	cScatterItems.Add(t.ScatterItems)
}

// JSON renders the trace as indented JSON (the -trace artifact).
func (t *Trace) JSON() ([]byte, error) { return json.MarshalIndent(t, "", "  ") }

// String renders the EXPLAIN ANALYZE view: one line per step annotated
// with the measured numbers, then the query totals.
func (t *Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s backend", t.Backend)
	var opts []string
	for _, k := range [...]string{"predication", "forcebulk", "scatterparallel"} {
		if t.Options[k] {
			opts = append(opts, k)
		}
	}
	if len(opts) > 0 {
		fmt.Fprintf(&sb, " (%s)", strings.Join(opts, ", "))
	}
	if t.Query != "" {
		fmt.Fprintf(&sb, ": %s", t.Query)
	}
	sb.WriteString("\n")
	for i := range t.Steps {
		s := &t.Steps[i]
		fmt.Fprintf(&sb, "%3d. %-8s %-14s", s.Index, s.Kind, s.Name)
		if s.Extent > 0 {
			mode := "blocked"
			if s.Strided {
				mode = "strided"
			}
			fmt.Fprintf(&sb, " shape=%dx%d/%s", s.Extent, s.Intent, mode)
		}
		fmt.Fprintf(&sb, " wall=%s", time.Duration(s.WallNS))
		if s.Workers > 0 {
			fmt.Fprintf(&sb, " workers=%d", s.Workers)
		}
		if s.Morsels > 1 {
			fmt.Fprintf(&sb, " morsels=%d imb=%.2f", s.Morsels, s.Imbalance)
		}
		if s.Uncut != "" {
			fmt.Fprintf(&sb, " uncut=%s", s.Uncut)
		}
		if s.Items > 0 {
			fmt.Fprintf(&sb, " items=%d", s.Items)
		}
		if s.MaterializedBytes > 0 {
			fmt.Fprintf(&sb, " mat=%dB", s.MaterializedBytes)
		}
		if s.FoldRuns > 0 {
			fmt.Fprintf(&sb, " folds=%d", s.FoldRuns)
		}
		if s.ScatterItems > 0 {
			fmt.Fprintf(&sb, " scatters=%d", s.ScatterItems)
		}
		var flags []string
		if s.Fused {
			flags = append(flags, fmt.Sprintf("fused:%d", len(s.Stmts)))
		}
		if s.Suppressed {
			flags = append(flags, "suppress")
		}
		if s.Virtual {
			flags = append(flags, "virtual")
		}
		if s.Predicated {
			flags = append(flags, "predicated")
		}
		switch {
		case s.Tile != "":
			tile := s.Tile
			if s.AccWide+s.AccCarried > 0 {
				tile += ",acc " + s.Acc()
			}
			if s.Early > 0 {
				tile += ",early " + strconv.Itoa(s.Early)
			}
			flags = append(flags, fmt.Sprintf("spec:%s(%s)", s.Specialized, tile))
		case s.Specialized != "":
			flags = append(flags, "spec:"+s.Specialized)
		}
		if len(flags) > 0 {
			fmt.Fprintf(&sb, " [%s]", strings.Join(flags, " "))
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "total: wall=%s alloc=%dB fragments=%d bulk=%d items=%d materialized=%dB folds=%d scatters=%d\n",
		time.Duration(t.WallNS), t.AllocBytes, t.Fragments, t.BulkSteps,
		t.Items, t.MaterializedBytes, t.FoldRuns, t.ScatterItems)
	return sb.String()
}

// The process-wide cumulative execution counters, registered on
// metrics.Default and keyed here by their historical expvar names. queries
// and fragments count every execution (one atomic add each — cheap enough
// to stay always on); the remaining counters accumulate only from traced
// queries, whose per-item numbers exist.
var (
	cQueries      = metrics.NewCounter("voodoo_queries_total", "Programs executed (every backend, traced or not).")
	cFragments    = metrics.NewCounter("voodoo_fragments_total", "Kernel fragments executed.")
	cTraced       = metrics.NewCounter("voodoo_traced_queries_total", "Programs executed with tracing enabled.")
	cItems        = metrics.NewCounter("voodoo_items_total", "Loop items executed by traced queries.")
	cAllocated    = metrics.NewCounter("voodoo_bytes_allocated_total", "Buffer bytes allocated by traced queries.")
	cMaterialized = metrics.NewCounter("voodoo_bytes_materialized_total", "Bytes materialized at fragment seams by traced queries.")
	cFoldRuns     = metrics.NewCounter("voodoo_fold_runs_total", "Aggregation runs produced by traced queries.")
	cScatterItems = metrics.NewCounter("voodoo_scatter_items_total", "Elements moved by materialized scatters in traced queries.")
)

// queryWall is the always-on end-to-end latency histogram: exactly one
// observation per program execution, made together with the queries
// counter. With the per-fragment counter this is the entire hot-path cost
// of process observability.
var queryWall = metrics.NewHistogram("voodoo_query_wall_seconds",
	"End-to-end wall time of each executed program (every backend, traced or not).",
	metrics.DefBuckets)

// CountQuery records one executed program: the always-on queries counter
// and its wall time in the latency histogram. Backends call it once per
// execution, traced or not.
func CountQuery(wall time.Duration) {
	cQueries.Inc()
	queryWall.Observe(wall.Seconds())
}

// CountFragment bumps the always-on per-fragment counter; the executor
// calls it once per fragment run.
func CountFragment() { cFragments.Inc() }

// Snapshot returns the current cumulative counter values — the "voodoo"
// map of /debug/vars.
func Snapshot() map[string]int64 {
	return map[string]int64{
		"queries":            cQueries.Value(),
		"fragments":          cFragments.Value(),
		"traced_queries":     cTraced.Value(),
		"items":              cItems.Value(),
		"bytes_allocated":    cAllocated.Value(),
		"bytes_materialized": cMaterialized.Value(),
		"fold_runs":          cFoldRuns.Value(),
		"scatter_items":      cScatterItems.Value(),
	}
}

func init() { expvar.Publish("voodoo", expvar.Func(func() any { return Snapshot() })) }
