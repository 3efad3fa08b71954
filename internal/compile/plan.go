package compile

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"strconv"
	"time"

	"voodoo/internal/core"
	"voodoo/internal/exec"
	"voodoo/internal/kernel"
	"voodoo/internal/telemetry"
	"voodoo/internal/trace"
	"voodoo/internal/vector"
)

// Plan is a compiled, executable Voodoo program.
type Plan struct {
	prog *core.Program
	st   Storage
	opt  Options
	kern *kernel.Kernel

	steps   []step
	outputs []output
}

// Kernel exposes the generated kernel (fragment listing, OpenCL source
// generation).
func (p *Plan) Kernel() *kernel.Kernel { return p.kern }

type output struct {
	ref  core.Ref
	conv converter
}

// RunOpts are the per-run execution options of a plan. Plans are
// immutable after Compile and safe to run concurrently; everything that
// varies per execution — the governor limits, the buffer pool, stats
// collection, tracing — travels here instead of in plan fields, which is
// what makes a cached plan shareable across requests. The zero value is an
// ungoverned, unpooled, uncounted, untraced run with specialization on.
type RunOpts struct {
	// Limits is the per-run resource governor (see exec.Limits): buffer
	// allocations are charged against MaxBytes, fragment extents checked
	// against MaxExtent. The run's deadline is the context's.
	Limits exec.Limits
	// Pool, when non-nil, supplies the run's kernel buffers and seam
	// materializations from recycled memory; the run's arena is attached
	// to the Result and returned to the pool by Result.Release.
	Pool *vector.Pool
	// CollectStats enables instruction/memory/branch event counting, which
	// device cost models convert into simulated times. Only the per-element
	// interpreter counts, so a counted run interprets every fragment.
	CollectStats bool
	// Trace records per-step tracing into Result.Trace: each plan step is
	// timed and annotated with its fragment provenance, its execution path
	// and measured work (items, materialized bytes, fold runs, scatter
	// items). A trace does not make the run counted: it executes exactly
	// the code an untraced run executes.
	Trace bool
	// MorselSize, when positive, overrides the executor's cut rule with
	// ranges of exactly that many work items (exec.Par.Morsel). Results are
	// bit-identical for every value; the bit-identity sweeps turn it.
	MorselSize int
	// NoSpecialize forces the per-element interpreter for every fragment
	// (the compiled-interp engine). Results are bit-identical either
	// way.
	NoSpecialize bool
}

// Result holds root values (in the interpreter's padded layout) and, when
// requested, the execution event counts and the per-step trace.
type Result struct {
	Values map[core.Ref]*vector.Vector
	// Stats holds one record per fragment and bulk step when CollectStats
	// or Trace was set; its device-model event counters are filled only
	// under CollectStats.
	Stats exec.Stats
	// Trace is the run's per-step trace when RunOpts.Trace was set, else
	// nil. It is owned by the caller and does not alias pooled memory.
	Trace *trace.Trace

	arena *vector.Arena
}

// Release returns the run's pooled buffers to the pool. Values becomes
// invalid — callers must finish reading (or copy out) the root vectors
// first. Release is nil-safe, idempotent, and a no-op for unpooled runs.
func (r *Result) Release() {
	if r == nil || r.arena == nil {
		return
	}
	r.arena.Release()
	r.arena = nil
	r.Values = nil // reads after Release should fail loudly, not read recycled memory
}

// runtime is the mutable state of one plan execution.
type runtime struct {
	plan *Plan
	ctx  context.Context
	env  *exec.Env
	// stats, when non-nil, receives a record per executed step; count
	// additionally asks fragments for the device-model event counters.
	stats *exec.Stats
	count bool
	arena *vector.Arena
	par   exec.Par
}

type step interface {
	run(rt *runtime) error
	// stepName labels the step in errors and recovered panics.
	stepName() string
}

// bindStep attaches a storage column to an input buffer.
type bindStep struct {
	buf int
	col *vector.Column
}

func (s *bindStep) run(rt *runtime) error {
	rt.env.Bufs[s.buf] = exec.FromColumnArena(s.col, rt.arena)
	return nil
}

func (s *bindStep) stepName() string { return "bind" }

// fragStep executes one kernel fragment.
type fragStep struct {
	f *kernel.Fragment
}

func (s *fragStep) run(rt *runtime) error {
	var fs *exec.FragStats
	if rt.stats != nil {
		rt.stats.Frags = append(rt.stats.Frags, exec.FragStats{})
		fs = &rt.stats.Frags[len(rt.stats.Frags)-1]
	}
	return exec.RunFragment(rt.ctx, s.f, rt.env, rt.par, fs, rt.count)
}

func (s *fragStep) stepName() string { return "fragment " + s.f.Name }

// bulkStep evaluates one statement with interpreter semantics: inputs are
// converted to vectors, the statement is evaluated, and output columns are bound
// to pre-declared buffers. Bulk steps are the compiler's semantic safety
// net and the execution model of the Ocelot baseline.
type bulkStep struct {
	name    string
	stmts   []int // SSA ids this step computes, for provenance
	inputs  []converter
	outBufs []int    // one per output attribute, in attrs order
	attrs   []string // output attribute names
	evalFn  func(args []*vector.Vector, ar *vector.Arena) (*vector.Vector, error)
	statsFn func(args []*vector.Vector, out *vector.Vector) exec.FragStats
}

func (s *bulkStep) run(rt *runtime) error {
	args := make([]*vector.Vector, len(s.inputs))
	for i, conv := range s.inputs {
		v, err := conv.run(rt)
		if err != nil {
			return err
		}
		args[i] = v
	}
	out, err := s.evalFn(args, rt.arena)
	if err != nil {
		return fmt.Errorf("bulk %s: %w", s.name, err)
	}
	for i, name := range s.attrs {
		col := out.Col(name)
		if col == nil {
			return fmt.Errorf("bulk %s: missing output attribute %q", s.name, name)
		}
		b := exec.FromColumnArena(col, rt.arena)
		if err := rt.env.Charge(b.Bytes()); err != nil {
			return fmt.Errorf("bulk %s: %w", s.name, err)
		}
		rt.env.Bufs[s.outBufs[i]] = b
	}
	if rt.stats != nil && s.statsFn != nil {
		rt.stats.Frags = append(rt.stats.Frags, s.statsFn(args, out))
	}
	return nil
}

func (s *bulkStep) stepName() string { return "bulk " + s.name }

// prunedStep records a selection fragment elided at plan time because
// zone-map statistics prove its predicate never passes. Running it is a
// no-op: the output buffers stay zeroed with all-false validity, which is
// bit-identical to executing the fragment.
type prunedStep struct {
	name  string
	stmts []int
	// outBufs are the buffers the elided fragment would have written.
	// They must be declared with a validity mask and left unallocated by
	// no one (non-input), so the zeroed state reads as all-ε; the plan
	// verifier checks exactly that (rule VP004).
	outBufs []int
}

func (s *prunedStep) run(rt *runtime) error { return nil }

func (s *prunedStep) stepName() string { return "pruned " + s.name }

// persistStep writes a converted value back to storage.
type persistStep struct {
	name string
	conv converter
}

func (s *persistStep) run(rt *runtime) error {
	v, err := s.conv.run(rt)
	if err != nil {
		return err
	}
	if rt.arena != nil {
		// Persisted vectors outlive the run; copy them off the arena so
		// releasing the query's buffers cannot corrupt storage.
		v = vector.UnpooledCopy(v)
	}
	return rt.plan.st.PersistVector(s.name, v)
}

func (s *persistStep) stepName() string { return "persist " + s.name }

// RunWith executes the plan under per-run options, leaving the plan itself
// untouched, so shared (cached) plans may run concurrently with different
// limits, pools, stats and trace settings. It runs under the hardening
// contract: the context cancels between steps and inside fragment loops,
// buffer allocations are charged against the Limits budget, and a panic in
// any step is recovered into a *exec.PanicError so one bad kernel fails its
// query instead of the process.
func (p *Plan) RunWith(ctx context.Context, ro RunOpts) (_ *Result, err error) {
	start := time.Now()
	defer func() {
		trace.CountQuery(time.Since(start))
		exec.NoteDeadline(err)
	}()
	// Deferred so the one debug record carries the outcome; the Enabled
	// guard keeps the disabled path allocation-free on the hot loop.
	if lg := telemetry.LoggerFrom(ctx); lg.Enabled(ctx, slog.LevelDebug) {
		defer func() {
			attrs := []slog.Attr{
				slog.Int("steps", len(p.steps)),
				slog.Duration("wall", time.Since(start)),
			}
			if err != nil {
				attrs = append(attrs, slog.String("error", err.Error()))
			}
			lg.LogAttrs(ctx, slog.LevelDebug, "compile: plan run", attrs...)
		}()
	}
	arena := ro.Pool.NewArena()
	defer func() {
		// A failed run has no Result to release through; recycle its
		// buffers here so errors do not bleed the pool dry.
		if err != nil {
			arena.Release()
		}
	}()
	env, err := exec.NewEnvPooled(p.kern, ro.Limits, arena)
	if err != nil {
		return nil, err
	}
	rt := &runtime{plan: p, ctx: ctx, env: env, arena: arena, count: ro.CollectStats,
		par: exec.Par{Workers: p.opt.Workers, Morsel: ro.MorselSize, NoSpecialize: ro.NoSpecialize}}
	res := &Result{Values: map[core.Ref]*vector.Vector{}, arena: arena}
	if ro.Trace {
		res.Trace = p.newTrace(ctx, ro.NoSpecialize)
	}
	tr := res.Trace
	if rt.count || tr != nil {
		// Someone reads the step records; only rt.count makes them counted.
		rt.stats = &res.Stats
	}
	for _, s := range p.steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		base := len(res.Stats.Frags)
		t0 := time.Now()
		if err := runStep(s, rt); err != nil {
			return nil, err
		}
		if tr != nil {
			tr.Add(p.traceStep(s, res.Stats.Frags[base:], time.Since(t0)))
		}
	}
	for _, o := range p.outputs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		v, err := convertProtected(o, rt)
		if err != nil {
			return nil, err
		}
		res.Values[o.ref] = v
		if tr != nil {
			tr.Add(trace.Step{
				Kind: trace.KindOutput, Name: fmt.Sprintf("v%d", o.ref),
				Stmts: []int{int(o.ref)}, WallNS: time.Since(t0).Nanoseconds(),
				Items:             int64(v.Len()),
				MaterializedBytes: int64(v.Len()) * int64(len(v.Names())) * 8,
			})
		}
	}
	if tr != nil {
		tr.AllocBytes = env.Allocated()
		tr.Finish(time.Since(start))
	}
	return res, nil
}

// newTrace starts the per-step trace of one run. Its backend names the
// engine, so a run that interprets every fragment says so once, here.
func (p *Plan) newTrace(ctx context.Context, noSpecialize bool) *trace.Trace {
	backend := "compiled"
	switch {
	case p.opt.ForceBulk:
		backend = "bulk-compiled"
	case noSpecialize:
		backend = "compiled-interp"
	}
	return &trace.Trace{
		Backend: backend,
		Options: map[string]bool{
			"predication":     p.opt.Predication,
			"forcebulk":       p.opt.ForceBulk,
			"scatterparallel": p.opt.ScatterParallel,
		},
		// A context-carried observer receives each step as it completes (the
		// diagnostics server's live query progress).
		OnStep: trace.ObserverFrom(ctx),
	}
}

// traceStep converts one executed step plus the fragment stats it appended
// into a trace record.
func (p *Plan) traceStep(s step, frags []exec.FragStats, wall time.Duration) trace.Step {
	ts := trace.Step{WallNS: wall.Nanoseconds()}
	var fs *exec.FragStats
	if len(frags) > 0 {
		fs = &frags[0]
	}
	switch x := s.(type) {
	case *bindStep:
		ts.Kind, ts.Name = trace.KindBind, p.kern.Bufs[x.buf].Name
	case *persistStep:
		ts.Kind, ts.Name = trace.KindPersist, x.name
	case *prunedStep:
		ts.Kind, ts.Name = trace.KindPruned, x.name
		ts.Stmts = x.stmts
	case *fragStep:
		ts.Kind, ts.Name = trace.KindFragment, x.f.Name
		pv := x.f.Prov
		ts.Stmts, ts.Fused = pv.Stmts, len(pv.Stmts) > 1
		ts.Suppressed, ts.Virtual, ts.Predicated = pv.Suppressed, pv.Virtual, pv.Predicated
		ts.Extent, ts.Intent, ts.N, ts.Strided = x.f.Extent, x.f.Intent, x.f.N, x.f.Strided
		if fs != nil {
			if fs.Wall > 0 {
				ts.WallNS = fs.Wall.Nanoseconds()
			}
			ts.Workers = fs.Workers
			ts.Morsels = int64(fs.Morsels)
			ts.Imbalance, ts.Uncut = fs.Imbalance, fs.Uncut
			ts.Specialized = fs.Specialized
			if fs.TileLanes > 0 {
				ts.Tile = strconv.Itoa(fs.TileLanes) + "x" + strconv.Itoa(fs.TileIters)
			}
			ts.AccWide, ts.AccCarried = fs.AccWide, fs.AccCarried
			ts.Items = fs.Items
			ts.MaterializedBytes = fs.StoreBytes
		}
		switch pv.Kind {
		case "fold", "filter-fold", "scan", "group-reduce":
			// One aggregation run per work item.
			ts.FoldRuns = int64(x.f.Extent)
		case "scatter":
			if fs != nil {
				ts.ScatterItems = fs.Items
			}
		}
	case *bulkStep:
		ts.Kind, ts.Name = trace.KindBulk, x.name
		ts.Stmts = x.stmts
		if fs != nil {
			ts.Items = fs.Items
			ts.MaterializedBytes = fs.StoreBytes
			ts.AllocBytes = fs.StoreBytes
			if x.name == core.OpScatter.String() {
				ts.ScatterItems = fs.Items
			}
			if x.name == core.OpFoldSum.String() || x.name == core.OpFoldMin.String() ||
				x.name == core.OpFoldMax.String() || x.name == core.OpFoldSelect.String() ||
				x.name == core.OpFoldScan.String() {
				ts.FoldRuns = 1
			}
		}
	default:
		ts.Kind, ts.Name = "step", s.stepName()
	}
	return ts
}

// runStep executes one plan step with panic isolation: a panic inside the
// step (a bulk evaluator, a converter, a fragment run on this goroutine)
// becomes a *exec.PanicError naming the step.
func runStep(s step, rt *runtime) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*exec.PanicError); ok {
				err = pe
				return
			}
			err = exec.NewPanicError(s.stepName(), r, stack())
		}
	}()
	return s.run(rt)
}

// convertProtected materializes one root output with the same panic
// isolation as plan steps.
func convertProtected(o output, rt *runtime) (v *vector.Vector, err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*exec.PanicError); ok {
				v, err = nil, pe
				return
			}
			v, err = nil, exec.NewPanicError(fmt.Sprintf("output v%d", o.ref), r, stack())
		}
	}()
	return o.conv.run(rt)
}

func stack() []byte { return debug.Stack() }

// converter produces the interpreter-layout vector for a compiled value at
// runtime. bufs records the kernel buffers the closure reads — provenance
// the plan verifier needs and an opaque function cannot expose.
type converter struct {
	bufs []int
	fn   func(rt *runtime) (*vector.Vector, error)
}

func (c converter) run(rt *runtime) (*vector.Vector, error) { return c.fn(rt) }

// converter builds the conversion closure for a descriptor, emitting any
// materialization fragments needed (at compile time).
func (c *compiler) converter(d *desc) converter {
	d = c.bufferize(c.emitReady(d))
	type slot struct {
		name  string
		buf   int
		valid bool
	}
	var slots []slot
	for _, a := range d.attrs {
		ld := a.ex.(*eLoad)
		slots = append(slots, slot{name: a.name, buf: ld.buf, valid: a.validEx != nil})
	}
	layout, logicalN, stride, countsBuf := d.layout, d.logicalN, d.runLen, d.countsBuf
	n := d.n

	var bufs []int
	for _, s := range slots {
		bufs = append(bufs, s.buf)
	}
	if layout == layoutGroupCompact && countsBuf >= 0 {
		bufs = append(bufs, countsBuf)
	}

	fn := func(rt *runtime) (*vector.Vector, error) {
		switch layout {
		case layoutDense:
			out := vector.New(n)
			for _, s := range slots {
				out.Set(s.name, rt.env.Bufs[s.buf].Column())
			}
			return out, nil
		case layoutFoldCompact:
			// Expand the suppressed layout: run r sits at padded
			// position r*stride (paper §3.1.2 in reverse).
			out := vector.New(logicalN)
			for _, s := range slots {
				compact := rt.env.Bufs[s.buf]
				var col *vector.Column
				if compact.Kind == vector.Int {
					col = rt.arena.EmptyInt(logicalN)
				} else {
					col = rt.arena.EmptyFloat(logicalN)
				}
				for r := 0; r < compact.Len(); r++ {
					pos := r * stride
					if pos >= logicalN {
						break
					}
					if compact.Valid != nil && !compact.Valid[r] {
						continue
					}
					if compact.Kind == vector.Int {
						col.SetInt(pos, compact.I[r])
					} else {
						col.SetFloat(pos, compact.F[r])
					}
				}
				out.Set(s.name, col)
			}
			return out, nil
		case layoutGroupCompact:
			// Partition p sits at the prefix sum of the counts.
			counts := rt.env.Bufs[countsBuf].I
			out := vector.New(logicalN)
			for _, s := range slots {
				compact := rt.env.Bufs[s.buf]
				var col *vector.Column
				if compact.Kind == vector.Int {
					col = rt.arena.EmptyInt(logicalN)
				} else {
					col = rt.arena.EmptyFloat(logicalN)
				}
				pos := 0
				for p := 0; p < compact.Len(); p++ {
					if counts[p] > 0 && pos < logicalN &&
						(compact.Valid == nil || compact.Valid[p]) {
						if compact.Kind == vector.Int {
							col.SetInt(pos, compact.I[p])
						} else {
							col.SetFloat(pos, compact.F[p])
						}
					}
					pos += int(counts[p])
				}
				out.Set(s.name, col)
			}
			return out, nil
		}
		return nil, fmt.Errorf("compile: cannot convert layout %d", layout)
	}
	return converter{bufs: bufs, fn: fn}
}
