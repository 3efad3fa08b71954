package rel

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sort"

	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/exec"
	"voodoo/internal/interp"
	"voodoo/internal/storage"
	"voodoo/internal/telemetry"
	"voodoo/internal/trace"
	"voodoo/internal/vector"
)

// Backend selects how lowered plans execute.
type Backend uint8

const (
	// Compiled uses the Voodoo→kernel compiler (the paper's OpenCL
	// backend analog).
	Compiled Backend = iota
	// Interpreted uses the reference interpreter (§3.2).
	Interpreted
	// BulkCompiled disables fusion (compile.Options.ForceBulk): every
	// operator fully materializes its column-wise intermediate result. It
	// is the reproduction's Ocelot baseline (paper Table 1 and §5.2), a
	// hardware-oblivious bulk processor in the MonetDB style, with the
	// Voodoo stack's semantics: the cost of materialization is what the
	// GPU's memory bandwidth hides (Figure 12) and the CPU's exposes
	// (Figure 13). The baseline runs with CollectStats, so the device
	// models can price it.
	BulkCompiled
)

// Runner executes relational queries; the Voodoo engine and the baseline
// engines (HyPer-style, Ocelot-style) all satisfy it, so the TPC-H driver
// treats them interchangeably.
type Runner interface {
	Run(q Query) (*Result, *exec.Stats, error)
	Catalog() *storage.Catalog
}

// Engine executes relational queries against a catalog through a Voodoo
// backend.
type Engine struct {
	Cat     *storage.Catalog
	Backend Backend
	// Opt tunes the compiling backend (predication etc.).
	Opt compile.Options
	// CollectStats enables event counting for the device cost models.
	CollectStats bool
	// NoSpecialize runs every fragment's batch program in element order
	// (one element at a time) instead of in tiles; compiling backends
	// only.
	NoSpecialize bool
	// Limits is the per-query resource governor (memory budget, extent
	// cap, deadline); the zero value imposes no limits. The memory and
	// extent limits apply to the compiling backends; the deadline applies
	// to every backend.
	Limits exec.Limits
	// TraceSink, when set, receives the execution trace of every query
	// this engine runs. Callers that share an engine across concurrent
	// queries set the sink on a per-query copy of it.
	TraceSink func(*trace.Trace)
	// PlanSink, when set, receives every plan Prepare compiles and every
	// plan Run reuses, which is the plan RunPrepared then executes (EXPLAIN
	// tooling). Interpreted queries compile nothing and deliver none.
	PlanSink func(*compile.Plan)
	// BaseContext, when set, is the context Run (the context-less Runner
	// entry point) executes under, so a TPC-H QueryFunc run through Run
	// still honours cancellation and deadlines. RunPrepared ignores it: an
	// explicit context wins.
	BaseContext context.Context
	// Pool, when set, recycles kernel buffers and interpreter
	// intermediates across queries: each run draws its working memory
	// from an arena of the pool and releases it when the result has been
	// assembled into rows. Result rows never alias pooled storage, so
	// callers see no difference beyond the allocation rate.
	Pool *vector.Pool
}

// Catalog implements Runner.
func (e *Engine) Catalog() *storage.Catalog { return e.Cat }

// Run lowers, executes and assembles one query under BaseContext (or the
// background context). A compiling backend prepares each plan once per
// catalog: a repeat of the query reuses the plan from the catalog's memo
// (see prepared). Stats is nil unless CollectStats is set and the backend
// is a compiling one.
func (e *Engine) Run(q Query) (res *Result, stats *exec.Stats, err error) {
	ctx := context.Background()
	if e.BaseContext != nil {
		ctx = e.BaseContext
	}
	pr, err := e.prepared(q)
	if err != nil {
		return nil, nil, err
	}
	return e.RunPrepared(ctx, pr)
}

// Prepared is a query lowered and (for the compiling backends) compiled,
// ready to run any number of times. A Prepared is immutable after Prepare
// returns: every run-varying input — limits, the buffer pool, stats
// collection — travels per run through RunPrepared, so one Prepared is
// safe to share across concurrent queries. This is what the catalog's memo
// stores, for Run and for every request the serve layer runs alike.
type Prepared struct {
	q    Query
	prog *core.Program
	plan *compile.Plan // nil for the interpreted backend
	// root is the value of the root relation; its columns are cols, keys
	// first, plus keepCol under a root Filter.
	root     core.Ref
	cols     []string
	keys     int
	keep     bool
	decoders map[string]decoder
}

// Plan returns the compiled plan, nil when the backend interprets.
func (pr *Prepared) Plan() *compile.Plan { return pr.plan }

// Prepare lowers q and, unless the engine interprets, compiles it, every
// time it is called. The result depends only on the query, the catalog, and
// the engine's backend options — never on per-run state — so it may be
// cached and shared.
func (e *Engine) Prepare(q Query) (*Prepared, error) {
	prog, l, err := lower(q, e.Cat)
	if err != nil {
		return nil, err
	}
	if len(l.root.cols) == 0 {
		return nil, fmt.Errorf("rel: query has no aggregate outputs")
	}
	pr := &Prepared{q: q, prog: prog, root: l.root.ref, cols: l.root.cols, keys: l.keys,
		keep: l.keep, decoders: map[string]decoder{}}
	for _, c := range pr.cols[:pr.keys] {
		if o := l.root.origins[c]; o.table != nil {
			if d, _ := o.table.Def(o.col); d.Dict != nil {
				pr.decoders[c] = func(v float64) string { return o.table.Decode(o.col, int64(v)) }
			}
		}
	}
	if e.Backend != Interpreted {
		if pr.plan, err = e.Plan(pr.prog); err != nil {
			return nil, err
		}
		if e.PlanSink != nil {
			e.PlanSink(pr.plan)
		}
	}
	return pr, nil
}

// RunOpts is the per-run configuration the engine hands a compiled plan:
// the one mapping from Engine fields to compile.RunOpts, shared by
// RunPrepared and by tools that run a plan of their own under the engine's
// settings (voodoo-run -prog). A trace is recorded exactly when a sink wants
// one.
func (e *Engine) RunOpts() compile.RunOpts {
	return compile.RunOpts{
		Limits: e.Limits, Pool: e.Pool, CollectStats: e.CollectStats,
		NoSpecialize: e.NoSpecialize, Trace: e.TraceSink != nil,
	}
}

// RunPrepared executes a prepared query under the engine's per-run
// configuration (limits, pool, stats, sinks), with cooperative cancellation
// and the resource governor: the context (and its deadline) aborts
// execution at statement/fragment boundaries and inside fragment loops,
// buffer allocations are charged against Limits.MaxBytes, and panics below
// the engine surface as *exec.PanicError. The prepared
// plan itself is never mutated, so concurrent RunPrepared calls on one
// Prepared are safe.
func (e *Engine) RunPrepared(ctx context.Context, pr *Prepared) (res *Result, stats *exec.Stats, err error) {
	// The Enabled guard keeps the disabled-logging path allocation-free —
	// RunPrepared sits on the daemon's steady-state hot path.
	if lg := telemetry.LoggerFrom(ctx); lg.Enabled(ctx, slog.LevelDebug) {
		lg.LogAttrs(ctx, slog.LevelDebug, "rel: run prepared",
			slog.String("query", pr.q.Name),
			slog.Bool("compiled", pr.plan != nil))
	}

	// Both backends leave the root value, its trace and a release that
	// recycles the run's pooled intermediates. release runs after assemble,
	// which copies every output value into plain Row maps, so results never
	// alias pooled storage. A failed run has released its memory already.
	var root *vector.Vector
	var tr *trace.Trace
	release := func() {}
	if pr.plan == nil {
		// A trace is recorded exactly when a sink wants one.
		ires, rerr := interp.Run(ctx, pr.prog, e.Cat, interp.Opts{Pool: e.Pool, Trace: e.TraceSink != nil})
		if err = rerr; err == nil {
			root, tr, release = ires.Value(pr.root), ires.Trace, ires.Release
		}
	} else {
		pres, rerr := pr.plan.RunWith(ctx, e.RunOpts())
		if err = rerr; err == nil {
			root, tr, release = pres.Values[pr.root], pres.Trace, pres.Release
			if e.CollectStats {
				stats = &pres.Stats
			}
		}
	}
	if err == nil && root == nil {
		release()
		err = fmt.Errorf("rel: output v%d not produced", pr.root)
	}
	if err != nil {
		if lg := telemetry.LoggerFrom(ctx); lg.Enabled(ctx, slog.LevelWarn) {
			lg.LogAttrs(ctx, slog.LevelWarn, "rel: run failed",
				slog.String("query", pr.q.Name), slog.Bool("compiled", pr.plan != nil),
				slog.String("error", err.Error()))
		}
		return nil, nil, err
	}
	if tr != nil {
		tr.Query = pr.q.Name
		e.TraceSink(tr)
	}

	q := pr.q
	res = pr.assemble(root)
	release()
	if q.OrderBy != nil {
		sort.SliceStable(res.Rows, func(i, j int) bool { return q.OrderBy(res.Rows[i], res.Rows[j]) })
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, stats, nil
}

// assemble reads the root relation's rows into a result table: the slots
// of a grouped relation where its first key is valid (a group with a live
// row), or a global aggregate's one slot, whose sums over an empty input
// read as zero; under a root Filter only the rows its predicate holds true
// at.
func (pr *Prepared) assemble(v *vector.Vector) *Result {
	res := &Result{Cols: slices.Clone(pr.cols), decoders: pr.decoders}
	cols := make([]*vector.Column, len(pr.cols))
	for j, c := range pr.cols {
		cols[j] = v.Col(c)
	}
	var keep *vector.Column
	if pr.keep {
		keep = v.Col(keepCol)
	}
	for i := 0; i < v.Len(); i++ {
		if pr.keys > 0 && !cols[0].Valid(i) {
			continue
		}
		if keep != nil && (!keep.Valid(i) || keep.Float(i) == 0) {
			continue
		}
		row := make(Row, len(cols))
		for j, c := range pr.cols {
			row[c] = valueAt(cols[j], i)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// valueAt reads slot i of c, ε as 0.
func valueAt(c *vector.Column, i int) float64 {
	if c.Valid(i) {
		return c.Float(i)
	}
	return 0
}

type decoder func(float64) string

// Dict reports whether column col is dictionary-encoded: Decode maps its
// values to strings.
func (r *Result) Dict(col string) bool {
	_, ok := r.decoders[col]
	return ok
}

// Decode maps a numeric key value of column col back to its string, when
// the column is dictionary-encoded.
func (r *Result) Decode(col string, v float64) string {
	if d, ok := r.decoders[col]; ok {
		return d(v)
	}
	return fmt.Sprintf("%g", v)
}

// Plan compiles a lowered program with the engine's backend options — the
// same configuration Prepare compiles, exposed so tools can EXPLAIN the
// exact plan a query would run.
func (e *Engine) Plan(prog *core.Program) (*compile.Plan, error) {
	opt := e.Opt
	// Join builds scatter unique keys (lowering rejects the builds whose
	// metadata says otherwise, BuildKeyError; repeats inside a sparse domain
	// are assumed away) and semi joins a constant flag.
	opt.ScatterParallel = true
	if e.Backend == BulkCompiled {
		opt.ForceBulk = true
	}
	return compile.Compile(prog, e.Cat, opt)
}

// Lower exposes the Voodoo program a query lowers to, for inspection tools
// (kernel listings, OpenCL source) — execution goes through Engine.Run.
func Lower(q Query, cat *storage.Catalog) (*core.Program, error) {
	prog, _, err := lower(q, cat)
	return prog, err
}

// lower runs the lowerer over q, turning its panics into errors.
func lower(q Query, cat *storage.Catalog) (prog *core.Program, l *lowerer, err error) {
	defer func() {
		if r := recover(); r != nil {
			le, ok := r.(lowerErr)
			if !ok {
				panic(r)
			}
			prog, l, err = nil, nil, le.err
		}
	}()
	l = &lowerer{b: core.NewBuilder(), cat: cat, shared: map[string]*node{}, aggs: map[*GroupAgg]*node{}}
	l.lowerRoot(q.Root)
	return l.b.Program(), l, nil
}
