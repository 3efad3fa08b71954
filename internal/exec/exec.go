// Package exec executes kernel IR natively: each fragment's Extent work
// items are distributed over goroutine workers, with an implicit global
// barrier between fragments (the paper's kernel boundaries).
//
// The executor doubles as the measurement probe of the reproduction: when
// given a *Stats, it counts instructions by class (integer ALU, float ALU,
// sequential and random memory traffic, data-dependent branch outcomes),
// which the device cost models (package device) convert into simulated
// times for hardware this host does not have. Only the per-element
// interpreter counts, so a counted run interprets every fragment; a run
// that is merely recorded (a trace) takes the path an unobserved run takes.
package exec

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"voodoo/internal/faultinject"
	"voodoo/internal/kernel"
	"voodoo/internal/metrics"
	"voodoo/internal/telemetry"
	"voodoo/internal/trace"
	"voodoo/internal/vector"
	"voodoo/internal/verify"
)

// Governor and panic-isolation visibility: operators watching /metrics
// see *degradation* (queries rejected per limit kind, kernels panicking),
// not just errors in logs. Counters are touched only on failure paths, so
// the hot path pays nothing. All three limit kinds are pre-created so the
// series exist at zero.
var (
	exhaustedVec = metrics.NewCounterVec("voodoo_resource_exhausted_total",
		"Executions aborted by the per-query resource governor, by exhausted limit.", "kind")
	exhaustedBytes    = exhaustedVec.With("bytes")
	exhaustedExtent   = exhaustedVec.With("extent")
	exhaustedDeadline = exhaustedVec.With("deadline")

	panicsRecovered = metrics.NewCounter("voodoo_panics_recovered_total",
		"Panics recovered into *PanicError at worker, plan-step and interpreter boundaries.")
)

// NoteDeadline counts err against the governor's deadline counter when the
// run timed out, whoever set the context's deadline. Each entry point calls
// it exactly once per failed run (compile plans for the compiling backends,
// the relational engine for the interpreter, Run for direct executor
// users), so a query is never double-counted.
func NoteDeadline(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		exhaustedDeadline.Inc()
	}
}

// ErrResourceExhausted is wrapped by every error the resource governor
// returns; match it with errors.Is.
var ErrResourceExhausted = errors.New("resource limit exhausted")

// errAborted is what a worker returns when it stops because a sibling
// worker already failed; it never surfaces to callers.
var errAborted = errors.New("exec: aborted after sibling worker failure")

// Limits is the per-query resource governor. The zero value imposes no
// limits. A wall-clock bound is the context's deadline.
type Limits struct {
	// MaxBytes bounds the query's total buffer allocation (kernel buffers
	// plus bulk-step outputs); exceeding it fails the allocating step with
	// ErrResourceExhausted before the memory is committed.
	MaxBytes int64
	// MaxExtent bounds the extent (work-item count) of any single
	// fragment.
	MaxExtent int
}

// PanicError is a panic recovered at a worker-goroutine or plan-step
// boundary: one bad kernel or bulk step fails its query instead of
// killing the process.
type PanicError struct {
	Fragment string // fragment or step name
	Value    any    // the recovered panic value
	Stack    []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: panic in %s: %v", e.Fragment, e.Value)
}

// ContractError is RunFragment's refusal of a fragment that breaks the
// fragment contract verify.BatchFacts checks: a register read no definition
// in its own work item dominates, a buffer both loaded and stored, or an
// instruction the executor has no meaning for. What such a fragment leaves
// would depend on how its work items fall to workers, so no path runs it —
// batch, interpreted or counted — and no work item starts. Diag is the
// verifier's diagnostic for it; Diag.Rule names the rule.
type ContractError struct {
	Diag verify.Diagnostic
}

func (e *ContractError) Error() string {
	return fmt.Sprintf("exec: %s breaks the fragment contract: %s: %s", e.Diag.Pos, e.Diag.Rule, e.Diag.Msg)
}

// NewPanicError builds the *PanicError for a freshly recovered panic and
// counts it in voodoo_panics_recovered_total. Every recovery boundary
// (executor workers, plan steps, interpreter statements) constructs
// through here so the counter sees each recovery exactly once; re-thrown
// *PanicError values must be passed through, not rewrapped.
func NewPanicError(frag string, value any, stack []byte) *PanicError {
	panicsRecovered.Inc()
	return &PanicError{Fragment: frag, Value: value, Stack: stack}
}

// protect runs fn, converting a panic into a *PanicError attributed to
// frag.
func protect(frag string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*PanicError); ok {
				err = pe
				return
			}
			err = NewPanicError(frag, r, debug.Stack())
		}
	}()
	return fn()
}

// Buffer is the runtime storage behind one kernel buffer.
type Buffer struct {
	Kind  vector.Kind
	I     []int64
	F     []float64
	Valid []bool // nil = every slot valid
}

// Len returns the buffer's slot count.
func (b *Buffer) Len() int {
	if b.Kind == vector.Int {
		return len(b.I)
	}
	return len(b.F)
}

// FromColumn converts a vector column into an executable buffer,
// materializing generated columns.
func FromColumn(c *vector.Column) *Buffer {
	return FromColumnArena(c, nil)
}

// FromColumnArena is FromColumn drawing any materialization it needs —
// the expansion of a generated column, the validity mask — from ar (nil =
// the Go heap). Materialized slices are adopted either way; they belong
// to the column's owner, not the arena.
func FromColumnArena(c *vector.Column, ar *vector.Arena) *Buffer {
	b := &Buffer{Kind: c.Kind()}
	if c.Kind() == vector.Int {
		if m, gen := c.Generated(); gen {
			out := ar.Ints(c.Len())
			for i := range out {
				out[i] = m.Value(i)
			}
			b.I = out
		} else {
			b.I = c.Ints()
		}
	} else {
		b.F = c.Floats()
	}
	if !c.AllValid() {
		b.Valid = ar.Bools(c.Len())
		for i := range b.Valid {
			b.Valid[i] = c.Valid(i)
		}
	}
	return b
}

// Column converts the buffer back into a vector column. The value slice
// and the validity mask are adopted, not copied, so the column aliases
// the buffer (and, for pooled runs, becomes invalid when the run's arena
// is released).
func (b *Buffer) Column() *vector.Column {
	if b.Kind == vector.Int {
		return vector.NewIntWithValid(b.I, b.Valid)
	}
	return vector.NewFloatWithValid(b.F, b.Valid)
}

// Bytes returns the buffer's storage footprint (8-byte scalars plus a
// byte per validity slot), the unit the resource governor accounts in.
func (b *Buffer) Bytes() int64 {
	n := int64(b.Len()) * 8
	if b.Valid != nil {
		n += int64(len(b.Valid))
	}
	return n
}

// Env binds runtime buffers to a kernel's buffer declarations.
type Env struct {
	Bufs []*Buffer

	lim       Limits
	allocated int64
}

// NewEnv allocates an environment for k with all non-input buffers
// allocated (input buffers must be bound with Bind before Run). It
// imposes no resource limits; use NewEnvLimited for a governed query.
func NewEnv(k *kernel.Kernel) *Env {
	e, err := NewEnvLimited(k, Limits{})
	if err != nil {
		// Only reachable when a fault-injection alloc hook is active;
		// hook-using tests must allocate through NewEnvLimited.
		panic(err)
	}
	return e
}

// NewEnvLimited is NewEnv under a resource governor: every buffer
// allocation is charged against lim.MaxBytes first, and an over-budget
// kernel fails with ErrResourceExhausted before its memory is committed.
func NewEnvLimited(k *kernel.Kernel, lim Limits) (*Env, error) {
	return NewEnvPooled(k, lim, nil)
}

// NewEnvPooled is NewEnvLimited drawing the kernel buffers from a
// per-query arena (nil = the Go heap). Pooled acquisitions are charged
// against the governor exactly like heap allocations — recycled memory is
// still this query's working set.
func NewEnvPooled(k *kernel.Kernel, lim Limits, ar *vector.Arena) (*Env, error) {
	e := &Env{Bufs: make([]*Buffer, len(k.Bufs)), lim: lim}
	for i, d := range k.Bufs {
		if d.Input {
			continue
		}
		bytes := int64(d.Size) * 8
		if d.Valid {
			bytes += int64(d.Size)
		}
		if err := e.Charge(bytes); err != nil {
			return nil, fmt.Errorf("exec: buffer %q: %w", d.Name, err)
		}
		b := &Buffer{Kind: d.Kind}
		if d.Kind == vector.Int {
			b.I = ar.Ints(d.Size)
		} else {
			b.F = ar.Floats(d.Size)
		}
		if d.Valid {
			b.Valid = ar.Bools(d.Size)
		}
		e.Bufs[i] = b
	}
	return e, nil
}

// Allocated returns the total buffer bytes charged against this
// environment so far (static kernel buffers plus runtime bulk outputs).
func (e *Env) Allocated() int64 { return e.allocated }

// Charge accounts bytes of query-local allocation against the
// environment's budget, failing with ErrResourceExhausted once the
// MaxBytes limit is crossed. Steps that allocate buffers at runtime (bulk
// steps) must charge before committing the allocation. Not safe for
// concurrent use; all allocation happens on the plan goroutine.
func (e *Env) Charge(bytes int64) error {
	if err := faultinject.Alloc(bytes); err != nil {
		return err
	}
	e.allocated += bytes
	if e.lim.MaxBytes > 0 && e.allocated > e.lim.MaxBytes {
		exhaustedBytes.Inc()
		return fmt.Errorf("exec: query needs %d buffer bytes, budget is %d: %w",
			e.allocated, e.lim.MaxBytes, ErrResourceExhausted)
	}
	return nil
}

// Bind attaches buf to the declaration named name and returns an error if
// no such input exists or the size or kind disagrees.
func (e *Env) Bind(k *kernel.Kernel, name string, buf *Buffer) error {
	for i, d := range k.Bufs {
		if d.Name != name {
			continue
		}
		if buf.Kind != d.Kind {
			return fmt.Errorf("exec: buffer %q is %v, declaration wants %v", name, buf.Kind, d.Kind)
		}
		if buf.Len() != d.Size {
			return fmt.Errorf("exec: buffer %q has %d slots, declaration wants %d", name, buf.Len(), d.Size)
		}
		e.Bufs[i] = buf
		return nil
	}
	return fmt.Errorf("exec: no buffer declaration %q", name)
}

// Stats accumulates per-class event counts across all fragments of a run.
// All byte figures assume the algebra's 8-byte scalars.
type Stats struct {
	Frags []FragStats
}

// FragStats is the record of one fragment execution. The first group is
// the cheap record both execution tiers fill whenever a caller hands
// RunFragment a FragStats; the event counters after it are the device-model
// inputs, which only a counted run (interpreter tier) collects.
type FragStats struct {
	Name       string
	Extent     int
	Intent     int
	Sequential bool

	// Wall is the fragment's measured wall-clock time; Workers is the
	// number of goroutines that actually executed morsels of it (the
	// submitter plus any pool workers that claimed work). Both are set by
	// RunFragment (not merged from workers).
	Wall    time.Duration
	Workers int
	// Morsels is the number of ranges the cut rule split the fragment into
	// (1 for a run on one participant); Imbalance is the busiest
	// participant's range count over an even share (1.0 = perfectly
	// balanced, higher = skew absorbed unevenly).
	Morsels   int
	Imbalance float64
	// Uncut is the cut rule's verdict for a fragment that ran as one range
	// although Workers allowed more: "extent-1", "scatter", "small",
	// "few-items", "saturated", "counted" or "morsel-override". Set by RunFragment.
	Uncut string

	// Specialized records the execution path this run took ("batch" or
	// "interp"). Set by RunFragment, not merged from workers.
	Specialized string

	// TileLanes × TileIters is the geometry of the batch tier's first tile:
	// work items side by side × consecutive iterations of each (zero on the
	// interpreter, and for a fragment without loops).
	TileLanes, TileIters int
	// AccWide and AccCarried count the batch tier's tiles of a loop whose
	// carried slice is scratch reductions (verify.LoopFacts.Chains): those
	// that ran them one primitive each, and those whose slots met so that
	// they ran iteration by iteration (zero for other fragments).
	AccWide, AccCarried int64

	Items int64 // loop iterations executed
	// StoreBytes counts bytes written to global buffers — the
	// materialization at this fragment's seam (8 per scalar store plus a
	// validity byte when the buffer carries a mask).
	StoreBytes int64

	// Device-model event counters (counted runs only).
	IntOps       int64
	FloatOps     int64
	SeqBytes     int64 // coalesced loads+stores
	RandAccesses int64 // gather/scatter accesses landing far from the last
	// NearAccesses counts random accesses within a cache line or two of
	// the previous access to the same buffer: repeated hot slots
	// (predicated lookups to position zero) and row-wise colocated
	// fields both show up here, priced at L1 latency.
	NearAccesses int64
	// RandByBuf histograms far random accesses per touched buffer (keyed
	// by buffer identity); cost models price them against the fragment's
	// total random working set.
	RandByBuf  map[int]RandCount
	Guards     int64 // data-dependent branch executions
	GuardsPass int64 // branches that fell through (predicate true)
	LocalOps   int64 // per-work-item scratch array accesses
	LocalBytes int64 // scratch array size per work item
	// StaticIntOps/StaticFloatOps are the per-iteration ALU counts of the
	// full loop body, for SIMT divergence pricing.
	StaticIntOps   int64
	StaticFloatOps int64
}

// RandCount is the per-buffer random access tally.
type RandCount struct {
	Bytes int64 // buffer size
	Count int64
}

func (fs *FragStats) merge(o *FragStats) {
	if fs.TileLanes == 0 {
		fs.TileLanes, fs.TileIters = o.TileLanes, o.TileIters
	}
	fs.AccWide += o.AccWide
	fs.AccCarried += o.AccCarried
	fs.Items += o.Items
	fs.StoreBytes += o.StoreBytes
	fs.IntOps += o.IntOps
	fs.FloatOps += o.FloatOps
	fs.SeqBytes += o.SeqBytes
	fs.RandAccesses += o.RandAccesses
	fs.NearAccesses += o.NearAccesses
	fs.Guards += o.Guards
	fs.GuardsPass += o.GuardsPass
	fs.LocalOps += o.LocalOps
	fs.StaticIntOps = max(fs.StaticIntOps, o.StaticIntOps)
	fs.StaticFloatOps = max(fs.StaticFloatOps, o.StaticFloatOps)
	for k, v := range o.RandByBuf {
		if fs.RandByBuf == nil {
			fs.RandByBuf = map[int]RandCount{}
		}
		e := fs.RandByBuf[k]
		e.Bytes = v.Bytes
		e.Count += v.Count
		fs.RandByBuf[k] = e
	}
}

// gomaxprocs is the default worker count for the zero Par.Workers.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// Run executes every fragment of k against env under the parallelism knobs
// in par (the zero Par means GOMAXPROCS workers, ranges cut by the rule,
// specialization on). A non-nil st makes the run counted: every fragment
// interprets and its event counts are accumulated into st. Cancellation is
// cooperative: the context is checked at every fragment
// boundary and every checkInterval work items inside fragment loops, so a
// cancelled or deadline-expired query aborts promptly instead of finishing
// all morsels.
func Run(ctx context.Context, k *kernel.Kernel, env *Env, par Par, st *Stats) error {
	for _, f := range k.Frags {
		var fs *FragStats
		if st != nil {
			st.Frags = append(st.Frags, FragStats{})
			fs = &st.Frags[len(st.Frags)-1]
		}
		if err := RunFragment(ctx, f, env, par, fs, fs != nil); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				NoteDeadline(err)
				return err
			}
			// The guard keeps the disabled path allocation-free; fragment
			// failures are rare enough to log unconditionally when enabled.
			if lg := telemetry.LoggerFrom(ctx); lg.Enabled(ctx, slog.LevelWarn) {
				lg.LogAttrs(ctx, slog.LevelWarn, "exec: fragment failed",
					slog.String("fragment", f.Name),
					slog.Int("extent", f.Extent),
					slog.String("error", err.Error()))
			}
			return fmt.Errorf("exec: fragment %s: %w", f.Name, err)
		}
	}
	return nil
}

// RunFragment executes a single fragment against env. A non-nil fs is
// overwritten with the fragment's record: its static shape (name, extent,
// intent, sequential, local bytes, static ALU counts) and the cheap run
// record (wall, workers, morsels, path, items, store bytes), neither of
// which influences the execution path; count
// additionally collects the device-model event counters into fs and
// therefore interprets. Used by Run and by the compiled plans, which
// interleave fragments with bulk steps. A panic in a worker goroutine is
// recovered into a *PanicError instead of killing the process, and once one
// worker fails — by error, panic or cancellation — the remaining workers
// stop at their next checkpoint and no further morsels are claimed.
// A fragment the cut rule splits (see sched.go) runs through the shared
// morsel scheduler; the submitting goroutine always participates, so
// progress never depends on pool availability. A fragment that breaks the
// fragment contract is refused with a *ContractError on every path before
// anything of it runs.
func RunFragment(ctx context.Context, f *kernel.Fragment, env *Env, par Par, fs *FragStats, count bool) error {
	if fs != nil {
		si, sf := f.StaticBodyOps()
		*fs = FragStats{
			Name: f.Name, Extent: f.Extent, Intent: f.Intent,
			Sequential: f.Sequential(), LocalBytes: int64(f.Locals) * 8,
			StaticIntOps: si, StaticFloatOps: sf,
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	bp := specFor(f)
	if bp.refused != nil {
		return bp.refused
	}
	trace.CountFragment()
	// In flight from here on: what another submitter's cut sees as a taken
	// participant slot.
	sched.busy.Add(1)
	defer sched.busy.Add(-1)
	if fs != nil {
		start := time.Now()
		defer func() { fs.Wall = time.Since(start) }()
	}
	if env.lim.MaxExtent > 0 && f.Extent > env.lim.MaxExtent {
		exhaustedExtent.Inc()
		if lg := telemetry.LoggerFrom(ctx); lg.Enabled(ctx, slog.LevelWarn) {
			lg.LogAttrs(ctx, slog.LevelWarn, "exec: extent limit exceeded",
				slog.String("fragment", f.Name),
				slog.Int("extent", f.Extent),
				slog.Int("max_extent", env.lim.MaxExtent))
		}
		return fmt.Errorf("exec: fragment %s extent %d exceeds MaxExtent %d: %w",
			f.Name, f.Extent, env.lim.MaxExtent, ErrResourceExhausted)
	}
	if faultinject.Enabled() {
		if err := protect(f.Name, func() error { faultinject.FragmentStart(f.Name); return nil }); err != nil {
			return err
		}
	}
	nregs := kernel.Reg(bp.nregs)
	batch := resolveSpec(bp, par.NoSpecialize, count)
	if fs != nil {
		fs.Specialized = "batch"
		if batch == nil {
			fs.Specialized = "interp"
		}
	}
	width, parts, verdict := cut(f, par, count, int(sched.busy.Load()))
	if width > 0 {
		return runMorselParallel(ctx, f, env, parts, width, nregs, batch, fs, count)
	}
	// One range: the pool could not help, or is not worth asking.
	w := newWorker(ctx, f, env, nregs, count, nil, batch)
	err := protect(f.Name, func() error { return w.run(0, max(f.Extent, 1)) })
	if err == nil && fs != nil {
		fs.Workers, fs.Morsels, fs.Imbalance, fs.Uncut = 1, 1, 1, verdict
		fs.merge(&w.stats)
	}
	w.release()
	return err
}

// checkInterval is how many lane-steps a worker executes between
// cooperative checkpoints (context cancellation, sibling-failure abort,
// fault-injection hooks): often enough that cancellation is prompt, rarely
// enough that the check is amortized.
const checkInterval = 1024

// worker executes a contiguous range of work items of one fragment.
type worker struct {
	f       *kernel.Fragment
	env     *Env
	ri      []int64
	rf      []float64
	locI    []int64
	locF    []float64
	scratch *scratch
	// stats always carries Items and StoreBytes (an add apiece); count
	// gates the device-model event counters, interpreter only.
	count bool
	stats FragStats
	// batch selects the specialized execution path for this run (nil =
	// interpret); bst is the batch register-column state, which lives in
	// the pooled scratch and is attached by the first runLanes.
	batch *batchProg
	bst   *bstate
	// checks gates the checkpoint machinery: false means the fast path
	// pays a single predictable branch per item and nothing else.
	checks bool
	ctx    context.Context // nil when the context can never be cancelled
	stop   *atomic.Bool    // shared abort flag of the parallel run, or nil
	// budget is the lane-steps left before the next checkpoint (tick). It
	// starts at zero, so the first item checkpoints immediately and an
	// already-cancelled context aborts before any work happens.
	budget int
	lines  Lines
}

// Lines remembers, per buffer key, the last few cache lines a counted run
// touched (a tiny LRU), so hot-line accesses — repeated slots, sequential
// gathers, colocated row fields — are told from far random ones. The device
// models' hand-written loops count through it too, so both are priced alike.
type Lines map[int]*lineRing

// lineRing is an 8-entry ring of recently touched cache lines; it also
// remembers the highest line so ascending streams are recognized.
type lineRing struct {
	lines    [8]int64
	pos      int
	n        int
	lastLine int64
}

// touch classifies an access: 0 = hot (line recently touched), 1 = stream
// (the next line of an ascending walk: a prefetched miss, bandwidth not
// latency), 2 = far random.
func (r *lineRing) touch(line int64) int {
	kind := 2
	if r.n > 0 && line == r.lastLine+1 {
		kind = 1
	}
	for i := 0; i < r.n; i++ {
		if r.lines[i] == line {
			kind = 0
			break
		}
	}
	if kind != 0 {
		r.lines[r.pos] = line
		r.pos = (r.pos + 1) % len(r.lines)
		if r.n < len(r.lines) {
			r.n++
		}
	}
	r.lastLine = line
	return kind
}

// scratchPool recycles the per-worker register and local-scratch slices:
// every fragment spawns one worker per chunk goroutine, so at steady
// state these small slices would otherwise dominate the allocation count.
// Registers are zeroed on reuse (make() semantics); locals are fully
// initialized by resetLocals before every work item.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

type scratch struct {
	ri   []int64
	rf   []float64
	locI []int64
	locF []float64
	// Batch-primitive state: register-column slabs, the selection vector,
	// the per-register column tables and the scratch-array slabs. Columns
	// are not zeroed on reuse — the verifier proves every read dominated by
	// a definition (see specialize.go) — and the driver fills the scratch
	// slab per batch.
	bcols  []int64
	bfcols []float64
	bsel   []int32
	bri    [][]int64
	brf    [][]float64
	blocI  []int64
	blocF  []float64
	bsnaps []snapshot
	bwinI  [][]int64
	bwinF  [][]float64
	bst    bstate
}

// grow returns a slice of exactly n elements backed by *buf, reusing its
// capacity without clearing (unlike intSlice/floatSlice, whose make()
// semantics the register file needs but batch columns do not).
func grow[T int64 | float64](buf *[]T, n int) []T {
	v := *buf
	if cap(v) < n {
		v = make([]T, n)
	} else {
		v = v[:n]
	}
	*buf = v
	return v
}

func (s *scratch) intSlice(which *[]int64, n int) []int64 {
	v := *which
	if cap(v) < n {
		v = make([]int64, n)
	} else {
		v = v[:n]
		clear(v)
	}
	*which = v
	return v
}

func (s *scratch) floatSlice(which *[]float64, n int) []float64 {
	v := *which
	if cap(v) < n {
		v = make([]float64, n)
	} else {
		v = v[:n]
		clear(v)
	}
	*which = v
	return v
}

// release hands the worker's scratch back for reuse; the worker must not
// run again afterwards.
func (w *worker) release() {
	if w.scratch == nil {
		return
	}
	scratchPool.Put(w.scratch)
	w.scratch, w.bst = nil, nil
	w.ri, w.rf, w.locI, w.locF = nil, nil, nil, nil
}

func newWorker(ctx context.Context, f *kernel.Fragment, env *Env, nregs kernel.Reg, count bool, stop *atomic.Bool, batch *batchProg) *worker {
	sc := scratchPool.Get().(*scratch)
	w := &worker{f: f, env: env, scratch: sc,
		ri: sc.intSlice(&sc.ri, int(nregs)), rf: sc.floatSlice(&sc.rf, int(nregs)), count: count,
		stop: stop, batch: batch, bst: &sc.bst}
	sc.bst.locLanes = 0 // whatever fragment the scratch served last: attach anew
	if ctx.Done() != nil {
		w.ctx = ctx
	}
	w.checks = w.ctx != nil || stop != nil || faultinject.Enabled()
	if f.Locals > 0 {
		if f.LocalsFloat {
			w.locF = sc.floatSlice(&sc.locF, f.Locals)
		} else {
			w.locI = sc.intSlice(&sc.locI, f.Locals)
		}
	}
	return w
}

// tick is the one checkpoint of both tiers: it retires n lane-steps of
// budget — one work item or iteration of the interpreter, one tile of the
// batch tier — and checks before they would take the run past checkInterval
// lane-steps since the last check. gid is the work item the interpreter is
// on, or the first work item of the tile the batch tier is about to run.
func (w *worker) tick(n, gid int) error {
	w.budget -= n
	if w.budget >= 0 {
		return nil
	}
	w.budget = checkInterval - n
	if w.stop != nil && w.stop.Load() {
		return errAborted
	}
	if w.ctx != nil {
		if err := w.ctx.Err(); err != nil {
			return err
		}
	}
	faultinject.Item(w.f.Name, gid)
	return nil
}

func (w *worker) resetLocals() {
	for i := range w.locI {
		w.locI[i] = int64(w.f.LocalsInit)
	}
	for i := range w.locF {
		w.locF[i] = w.f.LocalsInit
	}
}

// run executes work items [lo, hi) through the path resolved for this
// fragment run: batch primitives or the per-element interpreter.
func (w *worker) run(lo, hi int) error {
	if w.batch != nil {
		return w.runBatch(lo, hi)
	}
	return w.runInterp(lo, hi)
}

// runInterp is the per-element instruction interpreter — the oracle the
// batch path is differentially tested against, and the path of counted and
// NoSpecialize runs and of the batch tier's fault re-run.
func (w *worker) runInterp(lo, hi int) error {
	f := w.f
	for gid := lo; gid < hi; gid++ {
		if w.checks {
			if err := w.tick(1, gid); err != nil {
				return err
			}
		}
		w.ri[kernel.RegGID] = int64(gid)
		if f.Locals > 0 {
			w.resetLocals()
		}
		if err := w.exec(f.Pre); err != nil {
			return err
		}
		for _, loop := range f.Loops {
			bound := loop.Bound
			if bound <= 0 {
				bound = f.Intent
			}
			if loop.BoundReg > 0 {
				if dyn := int(w.ri[loop.BoundReg]); dyn < bound {
					bound = dyn
				}
			}
			for iv := 0; iv < bound; iv++ {
				w.ri[kernel.RegIV] = int64(iv)
				var idx int
				if f.Strided {
					idx = iv*f.Extent + gid
				} else {
					idx = gid*f.Intent + iv
				}
				if f.N > 0 && idx >= f.N {
					break
				}
				w.ri[kernel.RegIdx] = int64(idx)
				if w.checks {
					if err := w.tick(1, gid); err != nil {
						return err
					}
				}
				if err := w.exec(loop.Body); err != nil {
					return err
				}
				w.stats.Items++
			}
		}
		if err := w.exec(f.Post); err != nil {
			return err
		}
		if len(f.PostLoopBody) > 0 {
			for j := 0; j < f.Locals; j++ {
				w.ri[kernel.RegJ] = int64(j)
				if err := w.exec(f.PostLoopBody); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// exec interprets a straight-line instruction sequence. IGuard with a zero
// predicate aborts the sequence (the rest of the loop body is skipped).
func (w *worker) exec(instrs []kernel.Instr) error {
	ri, rf := w.ri, w.rf
	for _, in := range instrs {
		switch in.Op {
		case kernel.IConstI:
			ri[in.Dst] = in.Imm
		case kernel.IConstF:
			rf[in.Dst] = in.FImm
		case kernel.IMov:
			if in.Float {
				rf[in.Dst] = rf[in.A]
			} else {
				ri[in.Dst] = ri[in.A]
			}
		case kernel.IBin:
			if in.Float {
				v, err := fbin(in.BOp, rf[in.A], rf[in.B])
				if err != nil {
					return err
				}
				rf[in.Dst] = v
				if w.count {
					w.stats.FloatOps++
				}
			} else {
				v, err := ibin(in.BOp, ri[in.A], ri[in.B])
				if err != nil {
					return err
				}
				ri[in.Dst] = v
				if w.count {
					w.stats.IntOps++
				}
			}
		case kernel.ISel:
			if in.Float {
				if ri[in.A] != 0 {
					rf[in.Dst] = rf[in.B]
				} else {
					rf[in.Dst] = rf[in.C]
				}
			} else {
				if ri[in.A] != 0 {
					ri[in.Dst] = ri[in.B]
				} else {
					ri[in.Dst] = ri[in.C]
				}
			}
			if w.count {
				w.stats.IntOps++
			}
		case kernel.ILoad:
			buf := w.env.Bufs[in.Buf]
			i := ri[in.A]
			if i < 0 || i >= int64(buf.Len()) {
				return fmt.Errorf("load out of bounds: buf %d idx %d len %d", in.Buf, i, buf.Len())
			}
			if in.Float {
				rf[in.Dst] = buf.F[i]
			} else {
				ri[in.Dst] = buf.I[i]
			}
			if w.count {
				w.countAccess(in, buf)
			}
		case kernel.ILoadValid:
			buf := w.env.Bufs[in.Buf]
			i := ri[in.A]
			if i < 0 || i >= int64(buf.Len()) {
				ri[in.Dst] = 0
			} else if buf.Valid == nil || buf.Valid[i] {
				ri[in.Dst] = 1
			} else {
				ri[in.Dst] = 0
			}
			if w.count {
				w.countAccess(in, buf)
			}
		case kernel.IStore:
			buf := w.env.Bufs[in.Buf]
			i := ri[in.A]
			if i < 0 || i >= int64(buf.Len()) {
				return fmt.Errorf("store out of bounds: buf %d idx %d len %d", in.Buf, i, buf.Len())
			}
			val := ri[in.B]
			fval := rf[in.B]
			valid := true
			if buf.Valid != nil && in.C > 0 {
				// C > 0 selects conditional validity: the slot holds a
				// value only if the register is non-zero (predicated
				// stores mark the cursor slot tentatively). Empty slots
				// hold the reserved zero representation, exactly as the
				// data model's ε reads back.
				valid = ri[in.C] != 0
				if !valid {
					val, fval = 0, 0
				}
			}
			if in.Float {
				buf.F[i] = fval
			} else {
				buf.I[i] = val
			}
			// Bytes materialized at this fragment's seam.
			w.stats.StoreBytes += 8
			if buf.Valid != nil {
				buf.Valid[i] = valid
				w.stats.StoreBytes++
			}
			if w.count {
				w.countAccess(in, buf)
			}
		case kernel.IGuard:
			if w.count {
				w.stats.Guards++
				if ri[in.A] != 0 {
					w.stats.GuardsPass++
				}
			}
			if ri[in.A] == 0 {
				return nil
			}
		case kernel.ICastIF:
			rf[in.Dst] = float64(ri[in.A])
		case kernel.ICastFI:
			ri[in.Dst] = int64(rf[in.A])
		case kernel.ILoadLoc:
			i := ri[in.A]
			if i < 0 || i >= int64(w.f.Locals) {
				return fmt.Errorf("local load out of bounds: idx %d size %d", i, w.f.Locals)
			}
			if in.Float {
				rf[in.Dst] = w.locF[i]
			} else {
				ri[in.Dst] = w.locI[i]
			}
			if w.count {
				w.stats.LocalOps++
			}
		case kernel.IStoreLoc:
			i := ri[in.A]
			if i < 0 || i >= int64(w.f.Locals) {
				return fmt.Errorf("local store out of bounds: idx %d size %d", i, w.f.Locals)
			}
			if in.Float {
				w.locF[i] = rf[in.B]
			} else {
				w.locI[i] = ri[in.B]
			}
			if w.count {
				w.stats.LocalOps++
			}
		default:
			return fmt.Errorf("unknown instruction %v", in.Op)
		}
	}
	return nil
}

// countAccess classifies one global-memory access of a counted run.
func (w *worker) countAccess(in kernel.Instr, buf *Buffer) {
	// Validity masks are byte-sized; a validity probe against a buffer
	// with no mask is just a bounds check — pure arithmetic the paper's
	// compiler emits inline (or removes with static knowledge).
	width := int64(8)
	if in.Op == kernel.ILoadValid {
		if buf.Valid == nil {
			w.stats.IntOps += 2
			return
		}
		width = 1
	}
	if in.Seq {
		w.stats.SeqBytes += width
		return
	}
	if w.lines == nil {
		w.lines = Lines{}
	}
	// Mask bytes live apart from the data; track their lines separately.
	key := in.Buf
	if in.Op == kernel.ILoadValid {
		key |= 1 << 24
	}
	w.stats.CountAccess(w.lines, key, w.ri[in.A], int64(buf.Len())*width, width)
}

// CountAccess classifies one data-dependent access of width bytes to slot
// idx of the buffer key (bufBytes in all), against the lines recently
// touched, and counts it as near, stream or far random.
func (fs *FragStats) CountAccess(lines Lines, key int, idx, bufBytes, width int64) {
	r := lines[key]
	if r == nil {
		r = &lineRing{}
		lines[key] = r
	}
	switch r.touch(idx >> 3) {
	case 0:
		// A recently touched line: hot slots (predicated position-zero
		// lookups) and row-wise colocated fields stay cache resident.
		fs.NearAccesses++
		return
	case 1:
		// An ascending stream: the hardware prefetcher turns the miss
		// into bandwidth (a cache line per stride for data, a byte per
		// element for masks).
		fs.SeqBytes += width * 8
		fs.NearAccesses++
		return
	}
	fs.RandAccesses++
	if fs.RandByBuf == nil {
		fs.RandByBuf = map[int]RandCount{}
	}
	e := fs.RandByBuf[key]
	e.Bytes = bufBytes
	e.Count++
	fs.RandByBuf[key] = e
}

func ibin(op kernel.BinOp, a, b int64) (int64, error) {
	switch op {
	case kernel.BAdd:
		return a + b, nil
	case kernel.BSub:
		return a - b, nil
	case kernel.BMul:
		return a * b, nil
	case kernel.BDiv:
		if b == 0 {
			return 0, fmt.Errorf("integer division by zero")
		}
		return a / b, nil
	case kernel.BMod:
		if b == 0 {
			return 0, fmt.Errorf("integer modulo by zero")
		}
		m := a % b
		if m < 0 {
			m += b
		}
		return m, nil
	case kernel.BShl:
		if b >= 0 {
			return a << uint(b), nil
		}
		return a >> uint(-b), nil
	case kernel.BAnd:
		return b2i(a != 0 && b != 0), nil
	case kernel.BOr:
		return b2i(a != 0 || b != 0), nil
	case kernel.BGt:
		return b2i(a > b), nil
	case kernel.BGe:
		return b2i(a >= b), nil
	case kernel.BEq:
		return b2i(a == b), nil
	case kernel.BMin:
		return min(a, b), nil
	case kernel.BMax:
		return max(a, b), nil
	}
	return 0, fmt.Errorf("unknown int binop %v", op)
}

func fbin(op kernel.BinOp, a, b float64) (float64, error) {
	switch op {
	case kernel.BAdd:
		return a + b, nil
	case kernel.BSub:
		return a - b, nil
	case kernel.BMul:
		return a * b, nil
	case kernel.BDiv:
		if b == 0 {
			return 0, fmt.Errorf("float division by zero")
		}
		return a / b, nil
	case kernel.BGt:
		return float64(b2i(a > b)), nil
	case kernel.BGe:
		return float64(b2i(a >= b)), nil
	case kernel.BEq:
		return float64(b2i(a == b)), nil
	case kernel.BMin:
		return min(a, b), nil
	case kernel.BMax:
		return max(a, b), nil
	}
	return 0, fmt.Errorf("unsupported float binop %v", op)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
