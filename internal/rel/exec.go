package rel

import (
	"context"
	"fmt"
	"log/slog"
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
	// BulkCompiled disables fusion: every operator materializes. This is
	// the execution model of the Ocelot baseline.
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
	// NoSpecialize disables fragment specialization (batch primitives),
	// forcing every fragment through the per-element interpreter;
	// compiling backends only.
	NoSpecialize bool
	// Limits is the per-query resource governor (memory budget, extent
	// cap, deadline); the zero value imposes no limits. The memory and
	// extent limits apply to the compiling backends; the deadline applies
	// to every backend.
	Limits exec.Limits
	// TraceSink, when set, receives the execution trace of every query
	// this engine runs (one call per lowered program, so multi-phase
	// queries deliver several traces). Callers that share an engine across
	// concurrent queries set the sink on a per-query copy of it.
	TraceSink func(*trace.Trace)
	// PlanSink, when set, receives every plan Prepare compiles, which is
	// the plan RunPrepared then executes (EXPLAIN tooling; multi-phase
	// queries deliver one plan per phase). Interpreted queries compile
	// nothing and deliver none.
	PlanSink func(*compile.Plan)
	// BaseContext, when set, is the context Run (the context-less Runner
	// entry point) executes under. Callers that drive ctx-less call paths
	// — the TPC-H QueryFuncs, the benchmark drivers — set it on a
	// per-request engine copy so cancellation and deadlines still thread
	// through. RunPrepared ignores it: an explicit context wins.
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
// background context). Stats is nil unless CollectStats is set and the
// backend is a compiling one.
func (e *Engine) Run(q Query) (res *Result, stats *exec.Stats, err error) {
	ctx := context.Background()
	if e.BaseContext != nil {
		ctx = e.BaseContext
	}
	pr, err := e.Prepare(q)
	if err != nil {
		return nil, nil, err
	}
	return e.RunPrepared(ctx, pr)
}

// Prepared is a query lowered and (for the compiling backends) compiled,
// ready to run any number of times. A Prepared is immutable after Prepare
// returns: every run-varying input — limits, the buffer pool, stats
// collection — travels per run through RunPrepared, so one Prepared is
// safe to share across concurrent queries. This is what the serve layer's
// plan cache stores.
type Prepared struct {
	q    Query
	prog *core.Program
	outs []aggOut
	plan *compile.Plan // nil for the interpreted backend
}

// Plan returns the compiled plan, nil when the backend interprets.
func (pr *Prepared) Plan() *compile.Plan { return pr.plan }

// Prepare lowers q and, unless the engine interprets, compiles it. The
// result depends only on the query, the catalog, and the engine's backend
// options — never on per-run state — so it may be cached and shared.
func (e *Engine) Prepare(q Query) (*Prepared, error) {
	prog, outs, err := lower(q, e.Cat)
	if err != nil {
		return nil, err
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("rel: query has no aggregate outputs (the root must be a GroupAgg)")
	}
	pr := &Prepared{q: q, prog: prog, outs: outs}
	if e.Backend != Interpreted {
		if pr.plan, err = e.Plan(prog); err != nil {
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

	// release recycles the run's pooled intermediates. It runs after
	// assemble, which copies every output value into plain Row maps, so
	// results never alias pooled storage.
	release := func() {}
	values := map[core.Ref]*vector.Vector{}
	if pr.plan == nil {
		// A trace is recorded exactly when a sink wants one.
		ires, ierr := interp.Run(ctx, pr.prog, e.Cat, interp.Opts{Pool: e.Pool, Trace: e.TraceSink != nil})
		if ierr != nil {
			// The compiling backends count deadline aborts inside the plan
			// runner; the interpreter has no governor of its own, so the
			// engine accounts for it here.
			exec.NoteDeadline(ierr)
			if lg := telemetry.LoggerFrom(ctx); lg.Enabled(ctx, slog.LevelWarn) {
				lg.LogAttrs(ctx, slog.LevelWarn, "rel: interpreted run failed",
					slog.String("query", pr.q.Name), slog.String("error", ierr.Error()))
			}
			return nil, nil, ierr
		}
		if tr := ires.Trace; tr != nil {
			tr.Query = pr.q.Name
			e.TraceSink(tr)
		}
		release = ires.Release
		for _, ref := range pr.refs() {
			values[ref] = ires.Value(ref)
		}
	} else {
		pres, rerr := pr.plan.RunWith(ctx, e.RunOpts())
		if rerr != nil {
			if lg := telemetry.LoggerFrom(ctx); lg.Enabled(ctx, slog.LevelWarn) {
				lg.LogAttrs(ctx, slog.LevelWarn, "rel: compiled run failed",
					slog.String("query", pr.q.Name), slog.String("error", rerr.Error()))
			}
			return nil, nil, rerr
		}
		if tr := pres.Trace; tr != nil {
			tr.Query = pr.q.Name
			e.TraceSink(tr)
		}
		release = pres.Release
		for _, ref := range pr.refs() {
			v, ok := pres.Values[ref]
			if !ok {
				pres.Release()
				return nil, nil, fmt.Errorf("rel: output v%d not produced", ref)
			}
			values[ref] = v
		}
		if e.CollectStats {
			stats = &pres.Stats
		}
	}

	q := pr.q
	res = assemble(pr.outs, values)
	release()
	if q.Having != nil {
		kept := res.Rows[:0]
		for _, r := range res.Rows {
			if q.Having(r) {
				kept = append(kept, r)
			}
		}
		res.Rows = kept
	}
	if q.OrderBy != nil {
		sort.SliceStable(res.Rows, func(i, j int) bool { return q.OrderBy(res.Rows[i], res.Rows[j]) })
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, stats, nil
}

// refs lists the values assembling the result reads: every output and the
// counts averages divide by.
func (pr *Prepared) refs() []core.Ref {
	refs := make([]core.Ref, 0, len(pr.outs))
	for _, o := range pr.outs {
		refs = append(refs, o.ref)
		if o.div >= 0 {
			refs = append(refs, o.div)
		}
	}
	return refs
}

// assemble turns the padded fold outputs into a result table: valid slots
// of the outputs are aligned (all folds share the grouping), keys first.
func assemble(outs []aggOut, values map[core.Ref]*vector.Vector) *Result {
	res := &Result{decoders: map[string]decoder{}}
	var keyOuts, aggOuts []aggOut
	for _, o := range outs {
		if o.isKey {
			keyOuts = append(keyOuts, o)
		} else {
			aggOuts = append(aggOuts, o)
		}
	}
	for _, o := range keyOuts {
		res.Cols = append(res.Cols, o.name)
		if o.table != nil {
			if d, ok := o.table.Def(o.col); ok && d.Dict != nil {
				tbl, col := o.table, o.col
				res.decoders[o.name] = func(v float64) string { return tbl.Decode(col, int64(v)) }
			}
		}
	}
	for _, o := range aggOuts {
		res.Cols = append(res.Cols, o.name)
	}
	col := func(ref core.Ref) *vector.Column {
		if ref < 0 {
			return nil
		}
		return values[ref].SingleCol()
	}
	vals, divs := make([]*vector.Column, len(aggOuts)), make([]*vector.Column, len(aggOuts))
	for j, o := range aggOuts {
		vals[j], divs[j] = col(o.ref), col(o.div)
	}

	// Row positions come from the first output's validity — for grouped
	// aggregation the group-id fold, valid for a group with a live row. A
	// global aggregate always produces exactly one row — over an empty input
	// its sums read as zero (slot 0 is ε but still the row's position).
	var first *vector.Column
	if len(keyOuts) > 0 {
		first = col(keyOuts[0].ref)
	} else {
		first = vals[0]
	}
	for i := 0; i < first.Len(); i++ {
		if !first.Valid(i) && !(len(keyOuts) == 0 && i == 0) {
			continue
		}
		row := Row{}
		if len(keyOuts) > 0 {
			g := int64(first.Float(i))
			for _, o := range keyOuts {
				row[o.name] = float64(o.shift + g/o.stride%o.card)
			}
		}
		for j, o := range aggOuts {
			row[o.name] = valueAt(vals[j], i)
			if divs[j] != nil {
				if d := valueAt(divs[j], i); d != 0 {
					row[o.name] /= d
				}
			}
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
func lower(q Query, cat *storage.Catalog) (prog *core.Program, outs []aggOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			le, ok := r.(lowerErr)
			if !ok {
				panic(r)
			}
			prog, outs, err = nil, nil, le.err
		}
	}()
	l := &lowerer{b: core.NewBuilder(), cat: cat}
	l.lower(q.Root)
	return l.b.Program(), l.outs, nil
}
