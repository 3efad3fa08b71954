// Fragment specialization: compiled batch primitives, work items as lanes.
//
// The interpreter in exec.go dispatches through a switch statement once per
// instruction per element — O(items × instrs) dispatches. The paper's
// fragments are fused, function-call-free kernels whose Extent is the
// data-parallel dimension and whose Intent is the sequential iterations
// each work item makes, and its OpenCL backend runs work items as lock-step
// lanes. This file does the same on the CPU: it compiles each eligible
// fragment once (cached on the *kernel.Fragment, concurrency-safe) into
// batch primitives — one tight Go loop per instruction over a column of up
// to specBatchN lanes — and one driver (runLanes) walks the whole fragment
// IR over them: prologue, every loop as an outer loop over iv, epilogue,
// post-loop body. A lane is a work item; its registers are a lane of each
// column and its scratch array a column of a slab, and both simply persist
// from step to step. Dispatch cost drops to O(steps × instrs). IGuard
// compacts a selection vector, so predication never branches on data
// inside a primitive.
//
// The per-element interpreter remains as the fallback for ineligible
// fragments and as the oracle for differential testing (difftest's
// specialize sweeps and FuzzBatchVsInterp run both tiers against it).
//
// Contracts preserved exactly: a cancellation checkpoint at least every
// checkInterval lane-steps (tickN), governor Limits, panics → *PanicError
// with cross-worker abort, scratch from the pooled arena, the
// interpreter's error on a fault, and bit-identical results at any morsel
// size and worker count. The last is what verify.BatchFacts decides: lanes
// run step-major where the interpreter runs element-major, which nothing
// can observe when every register read is dominated by a definition in its
// own work item and no buffer is both loaded and stored (work items write
// disjoint slots by the algebra's contract, see sched.go).
//
// One rule picks the path, and observing is not part of it: a fragment
// batches when it is eligible, unless the caller disabled specialization,
// asked for the device-model event counters (only the interpreter counts —
// its Near/Rand classification is element-order-sensitive, and a second
// copy of the counting rules would have to be proved equal to the first), or
// enabled a fault-injection hook (hooks replay per-item state the batch
// path does not model). The cheap record a trace wants — items and store
// bytes — is kept by both tiers unconditionally.
package exec

import (
	"fmt"

	"voodoo/internal/kernel"
	"voodoo/internal/metrics"
	"voodoo/internal/verify"
)

// Specialization observability: every fragment execution counts the path
// it actually took, and every interpreted one the reason it did not batch.
// The path series and the run-time reasons are pre-created so they exist at
// zero; eligibility reasons appear with the first fragment they reject.
var (
	specializedVec = metrics.NewCounterVec("voodoo_fragments_specialized_total",
		"Fragment executions by execution path: batch primitives or the per-element interpreter.", "path")
	specBatchC  = specializedVec.With("batch")
	specInterpC = specializedVec.With("interp")

	rejectVec = metrics.NewCounterVec("voodoo_fragment_reject_total",
		"Interpreted fragment executions by the reason they did not take the batch path.", "reason")
	rejectNoSpecialize = newReject("no-specialize")
	rejectFaults       = newReject("fault-hooks")
	rejectCounted      = newReject("counted")
)

// reject is one reason a fragment interprets, with its counter resolved
// once so the per-fragment cost is an atomic add.
type reject struct {
	reason string
	c      *metrics.Counter
}

func newReject(reason string) *reject { return &reject{reason, rejectVec.With(reason)} }

// specBatchN is the most lanes one batch holds. It equals checkInterval, so
// no step is longer than the interpreter's cancellation latency.
const specBatchN = checkInterval

// specFor returns the fragment's cached batch compilation — a program, or
// the reason the fragment is not batch-eligible — compiling it on first
// use. Racing first executions compile redundantly but store identical
// content.
func specFor(f *kernel.Fragment) *batchProg {
	if v := f.LoadSpec(); v != nil {
		return v.(*batchProg)
	}
	bp := compileBatch(f)
	f.StoreSpec(bp)
	return bp
}

// resolveSpec picks the execution path for one run of the fragment bp was
// compiled from and counts it: bp itself — the batch program every
// participating worker must run (the submitter and all pool helpers claim
// morsels of the same job) — or nil to interpret, with the reason. count
// reports whether the caller asked for the device counters; whether anyone
// records the run is deliberately not an input.
func resolveSpec(bp *batchProg, noSpecialize, count, faults bool) (*batchProg, string) {
	rej := bp.ineligible
	switch {
	case noSpecialize:
		rej = rejectNoSpecialize
	case faults:
		rej = rejectFaults
	case count:
		rej = rejectCounted
	case rej == nil:
		specBatchC.Inc()
		return bp, ""
	}
	specInterpC.Inc()
	rej.c.Inc()
	return nil, rej.reason
}

// ---------------------------------------------------------------------------
// Batch primitives

// batchPrim executes one instruction over the active lanes of a batch: the
// primitive for its opcode and domain (primFor), applied to the
// instruction.
type batchPrim struct {
	fn func(w *worker, b *bstate, in *kernel.Instr) error
	in kernel.Instr
}

// batchLoop is one compiled loop: its body, and the iteration bound each
// lane observes — static (Loop.Bound, or the fragment's Intent), capped per
// lane by the value boundReg holds at loop entry when boundReg > 0.
type batchLoop struct {
	body     []batchPrim
	bound    int
	boundReg kernel.Reg
}

// batchProg is a fragment compiled to batch primitives, one sequence per
// section of the fragment IR, executed over batches of up to specBatchN
// lanes (see runLanes).
type batchProg struct {
	pre, post, postLoop []batchPrim
	loops               []batchLoop
	// recut: lanes are the fragment's elements rather than its work items
	// (verify.Facts.Recut).
	recut bool
	// intRegs/fltRegs are the registers needing a column in each file.
	intRegs []kernel.Reg
	fltRegs []kernel.Reg
	// nregs bounds the register index space of the fragment, for the
	// column tables and the interpreter's register file alike; computed
	// once here, whether or not the fragment is eligible.
	nregs int
	// ineligible, when set, is why the fragment has no batch program
	// (verify.Facts.Reason); only nregs is then filled.
	ineligible *reject
}

// bstate is a worker's register-column state. Columns live in the worker's
// pooled scratch and persist across the steps of a batch: lane i of every
// column belongs to the batch's i-th work item for the whole of its
// prologue, loops and epilogue. Within one step lanes [0, n) are live;
// sel == nil means all of them are active, otherwise sel lists the active
// lane offsets in ascending order.
type bstate struct {
	n      int
	sel    []int32
	selBuf []int32
	ri     [][]int64
	rf     [][]float64
	// unit: the RegIdx column is unit-stride over the lanes (lane i holds
	// idx[0]+i), so a dense access indexed by it is a contiguous range.
	// True for intent-1, strided and re-cut geometries; false for blocked
	// lanes with Intent > 1, whose neighbours are Intent elements apart.
	unit bool
	// stride is the lane capacity the columns are currently cut for.
	stride int
	// Scratch arrays: slot s of lane i is loc[s*lanes+i], lanes being the
	// lane count of the current batch; one of locI/locF is in use.
	lanes int
	nloc  int
	locI  []int64
	locF  []float64
	// bnd holds the per-lane iteration bounds of a dynamic-bound loop.
	bnd []int64
}

// active returns the live lane count of the step.
func (b *bstate) active() int {
	if b.sel == nil {
		return b.n
	}
	return len(b.sel)
}

// compileBatch translates the fragment into batch primitives, or records
// why it is not eligible. Eligibility is decided entirely by the
// verifier's fragment facts (verify.BatchFacts) — the single source of
// truth for the dominance, store/load disjointness and lane-count rules —
// so the specializer only translates instructions. Eligibility is
// conservative: every rejected fragment simply interprets.
func compileBatch(f *kernel.Fragment) *batchProg {
	bp := &batchProg{nregs: f.NumRegs()}
	facts := verify.BatchFacts(f)
	if !facts.BatchEligible {
		bp.ineligible = newReject(facts.Reason)
		return bp
	}
	bp.intRegs, bp.fltRegs, bp.recut = facts.IntRegs, facts.FltRegs, facts.Recut
	ok := true
	seg := func(instrs []kernel.Instr) []batchPrim {
		out := make([]batchPrim, len(instrs))
		for i, in := range instrs {
			out[i] = batchPrim{primFor(&in), in}
			ok = ok && out[i].fn != nil
		}
		return out
	}
	bp.pre, bp.post, bp.postLoop = seg(f.Pre), seg(f.Post), seg(f.PostLoopBody)
	for _, l := range f.Loops {
		bound := l.Bound
		if bound <= 0 {
			bound = f.Intent
		}
		bp.loops = append(bp.loops, batchLoop{seg(l.Body), bound, l.BoundReg})
	}
	if !ok {
		// Unreachable for fact-eligible fragments (the whitelist matches
		// primFor's coverage); kept as a belt against the two drifting
		// apart.
		return &batchProg{nregs: bp.nregs, ineligible: newReject("instruction without a batch primitive")}
	}
	return bp
}

// attachBatch cuts the worker's pooled scratch into register columns of
// stride lanes for bp. Columns are not zeroed: the verifier proved every
// read is dominated by a definition in the same work item, which is the
// same lane.
func (w *worker) attachBatch(bp *batchProg, stride int) {
	sc := w.scratch
	ints := grow(&sc.bcols, (len(bp.intRegs)+1)*stride)
	flts := grow(&sc.bfcols, len(bp.fltRegs)*stride)
	if cap(sc.bri) < bp.nregs {
		sc.bri = make([][]int64, bp.nregs)
		sc.brf = make([][]float64, bp.nregs)
	}
	sc.bri = sc.bri[:bp.nregs]
	sc.brf = sc.brf[:bp.nregs]
	clear(sc.bri)
	clear(sc.brf)
	for i, r := range bp.intRegs {
		sc.bri[r] = ints[i*stride : (i+1)*stride]
	}
	for i, r := range bp.fltRegs {
		sc.brf[r] = flts[i*stride : (i+1)*stride]
	}
	if cap(sc.bsel) < stride {
		sc.bsel = make([]int32, stride)
	}
	f := w.f
	w.bst = bstate{ri: sc.bri, rf: sc.brf, selBuf: sc.bsel[:0], stride: stride,
		bnd:  ints[len(bp.intRegs)*stride:],
		unit: bp.recut || f.Strided || f.Intent == 1, nloc: f.Locals}
	if f.LocalsFloat {
		w.bst.locF = grow(&sc.blocF, f.Locals*stride)
	} else {
		w.bst.locI = grow(&sc.blocI, f.Locals*stride)
	}
}

// tickN retires n lane-steps of checkpoint budget at once — the batch
// path's replacement for per-item tick — checking before a step would take
// the run past checkInterval lane-steps since the last check. The batch
// path never runs with fault injection enabled (resolveSpec falls back to
// the interpreter), so the per-item hook is not replayed here.
func (w *worker) tickN(n int) error {
	w.budget -= n
	if w.budget > 0 {
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
	return nil
}

// runBatch executes work items [lo, hi) through the batch primitives. When
// a primitive faults, the range is run again interpreted and that run's
// error is reported: lanes reach a fault in step order, the interpreter in
// element order, and callers are promised the interpreter's error. An
// eligible fragment never loads a buffer it stores, so the second run reads
// what the first read and gets to its own first fault.
func (w *worker) runBatch(lo, hi int) error {
	fault, err := w.runLanes(lo, hi)
	if fault {
		if ierr := w.runInterp(lo, hi); ierr != nil {
			return ierr
		}
	}
	return err
}

// liveLanes reports how many of the n lanes starting at work item base
// still have idx < N at step iv. idx grows with the lane and with iv, so
// the live lanes are a prefix and a lane that left stays out.
func liveLanes(f *kernel.Fragment, base, n, iv int) int {
	if f.N <= 0 {
		return n
	}
	var m int
	switch {
	case f.Strided:
		m = f.N - iv*f.Extent - base
	case f.Intent > 0:
		m = (f.N-iv+f.Intent-1)/f.Intent - base
	case iv < f.N:
		return n
	}
	return max(0, min(n, m))
}

// runLanes is the batch tier's one driver: the whole fragment IR with work
// items as lock-step lanes. A batch is up to specBatchN consecutive work
// items. The prologue runs once over the lanes; each loop runs as an outer
// loop over iv whose body primitives run over the lanes still iterating (a
// lane leaves when idx >= N or iv reaches its bound, and IGuard's selection
// lasts one step); then the epilogue, then the post-loop body once per
// scratch slot. Register columns and the scratch slab simply persist across
// steps, so fold accumulators, filter cursors and dynamic bounds need no
// recognition. An intent-1 fragment is the one-step case; a re-cut fragment
// is run as the intent-1 fragment over its elements that it is equivalent
// to. fault reports that err came from a primitive rather than a
// checkpoint.
func (w *worker) runLanes(lo, hi int) (fault bool, err error) {
	bp, f := w.batch, w.f
	if bp.recut {
		lo, hi = lo*f.Intent, hi*f.Intent
		if f.N > 0 {
			hi = min(hi, f.N)
		}
	}
	if hi <= lo {
		return false, nil
	}
	if need := min(specBatchN, hi-lo); need > w.bst.stride {
		w.attachBatch(bp, need)
	}
	b := &w.bst
	gidc, ivc, idxc, jc := b.ri[kernel.RegGID], b.ri[kernel.RegIV], b.ri[kernel.RegIdx], b.ri[kernel.RegJ]
	// step runs one primitive sequence over lanes [0, m): all of them, or
	// those sel lists. A checkpoint precedes it; fault tells a primitive's
	// error from the checkpoint's.
	step := func(prims []batchPrim, m int, sel []int32) (bool, error) {
		if len(prims) == 0 {
			return false, nil
		}
		b.n, b.sel = m, sel
		if w.checks {
			if err := w.tickN(b.active()); err != nil {
				return false, err
			}
		}
		for i := range prims {
			if err := prims[i].fn(w, b, &prims[i].in); err != nil {
				return true, err
			}
			if b.sel != nil && len(b.sel) == 0 {
				break // every lane guarded off: skip the rest of the sequence
			}
		}
		return false, nil
	}
	for base := lo; base < hi; base += specBatchN {
		n := min(specBatchN, hi-base)
		b.lanes = n
		if bp.recut {
			g, v := int64(base/f.Intent), int64(base%f.Intent)
			for i := 0; i < n; i++ {
				gidc[i], ivc[i], idxc[i] = g, v, int64(base+i)
				if v++; v == int64(f.Intent) {
					g, v = g+1, 0
				}
			}
		} else {
			for i := 0; i < n; i++ {
				gidc[i] = int64(base + i)
			}
		}
		if f.LocalsFloat {
			for i := range b.locF[:f.Locals*n] {
				b.locF[i] = f.LocalsInit
			}
		} else {
			for i := range b.locI[:f.Locals*n] {
				b.locI[i] = int64(f.LocalsInit)
			}
		}
		if fault, err := step(bp.pre, n, nil); err != nil {
			return fault, err
		}
		for li := range bp.loops {
			l := &bp.loops[li]
			// Every lane runs steps [0, dense); from there to steps the
			// per-lane bounds decide.
			steps, dense := l.bound, l.bound
			if bp.recut {
				steps, dense = 1, 1
			}
			var bnd []int64
			if l.boundReg > 0 {
				// Read once, at loop entry, as the interpreter reads it.
				bnd = b.bnd[:n]
				least, most := int64(l.bound), int64(0)
				for i, v := range b.ri[l.boundReg][:n] {
					v = min(v, int64(l.bound))
					bnd[i] = v
					least, most = min(least, v), max(most, v)
				}
				steps, dense = int(most), int(least)
			}
			for iv := 0; iv < steps; iv++ {
				m := n
				if !bp.recut {
					m = liveLanes(f, base, n, iv)
					if f.Strided {
						x := int64(iv*f.Extent + base)
						for i := 0; i < m; i++ {
							idxc[i], ivc[i] = x+int64(i), int64(iv)
						}
					} else {
						x := int64(base*f.Intent + iv)
						for i := 0; i < m; i++ {
							idxc[i], ivc[i] = x, int64(iv)
							x += int64(f.Intent)
						}
					}
				}
				var sel []int32
				if iv >= dense {
					sel = b.selBuf[:0]
					for i, v := range bnd[:m] {
						if int64(iv) < v {
							sel = append(sel, int32(i))
						}
					}
					if len(sel) == 0 {
						m = 0
					}
				}
				if m == 0 {
					break // lanes only ever leave a loop
				}
				if fault, err := step(l.body, m, sel); err != nil {
					return fault, err
				}
				// Iterations executed, guarded off or not; sel still has
				// the length it was built with.
				if sel != nil {
					m = len(sel)
				}
				w.stats.Items += int64(m)
			}
		}
		if fault, err := step(bp.post, n, nil); err != nil {
			return fault, err
		}
		if len(bp.postLoop) > 0 {
			for j := 0; j < f.Locals; j++ {
				for i := 0; i < n; i++ {
					jc[i] = int64(j)
				}
				if fault, err := step(bp.postLoop, n, nil); err != nil {
					return fault, err
				}
			}
		}
	}
	return false, nil
}

// primFor returns the batch primitive for an instruction's opcode and
// domain, or nil when there is none. Primitives are plain functions over the
// instruction they were compiled from: no closure per instruction, and Go
// inlines helpers such as b2i into their loops (which it does not do in a
// closure copied out of an inlined constructor). Every primitive has the
// same two loops: over the selection when there is one, else over lanes
// [0, n) with the columns cut to that length so the loop carries no bounds
// checks. The generic ones are written once over the element type and
// handed the register file, scratch slab or buffer slice of their domain.
func primFor(in *kernel.Instr) func(*worker, *bstate, *kernel.Instr) error {
	switch in.Op {
	case kernel.IConstI:
		return func(_ *worker, b *bstate, in *kernel.Instr) error { return primConst(b.ri, in.Imm, b, in) }
	case kernel.IConstF:
		return func(_ *worker, b *bstate, in *kernel.Instr) error { return primConst(b.rf, in.FImm, b, in) }
	case kernel.IMov:
		if in.Float {
			return func(_ *worker, b *bstate, in *kernel.Instr) error { return primMov(b.rf, b, in) }
		}
		return func(_ *worker, b *bstate, in *kernel.Instr) error { return primMov(b.ri, b, in) }
	case kernel.IBin:
		switch {
		case in.Float:
			return func(_ *worker, b *bstate, in *kernel.Instr) error { return primBin(b.rf, fbin, b, in) }
		case in.BOp == kernel.BAnd || in.BOp == kernel.BOr:
			return primLogic
		}
		return func(_ *worker, b *bstate, in *kernel.Instr) error { return primBin(b.ri, ibin, b, in) }
	case kernel.ISel:
		if in.Float {
			return func(_ *worker, b *bstate, in *kernel.Instr) error { return primSel(b.rf, b, in) }
		}
		return func(_ *worker, b *bstate, in *kernel.Instr) error { return primSel(b.ri, b, in) }
	case kernel.ILoad:
		if in.Float {
			return func(w *worker, b *bstate, in *kernel.Instr) error {
				buf := w.env.Bufs[in.Buf]
				return primLoad(b.rf, buf.F, buf, b, in)
			}
		}
		return func(w *worker, b *bstate, in *kernel.Instr) error {
			buf := w.env.Bufs[in.Buf]
			return primLoad(b.ri, buf.I, buf, b, in)
		}
	case kernel.ILoadValid:
		return primLoadValid
	case kernel.IStore:
		if in.Float {
			return func(w *worker, b *bstate, in *kernel.Instr) error {
				buf := w.env.Bufs[in.Buf]
				return primStore(w, b.rf, buf.F, buf, b, in)
			}
		}
		return func(w *worker, b *bstate, in *kernel.Instr) error {
			buf := w.env.Bufs[in.Buf]
			return primStore(w, b.ri, buf.I, buf, b, in)
		}
	case kernel.IGuard:
		return primGuard
	case kernel.ICastIF:
		return func(_ *worker, b *bstate, in *kernel.Instr) error { return primCast(b.rf, b.ri, b, in) }
	case kernel.ICastFI:
		return func(_ *worker, b *bstate, in *kernel.Instr) error { return primCast(b.ri, b.rf, b, in) }
	case kernel.ILoadLoc:
		if in.Float {
			return func(_ *worker, b *bstate, in *kernel.Instr) error { return primLoadLoc(b.rf, b.locF, b, in) }
		}
		return func(_ *worker, b *bstate, in *kernel.Instr) error { return primLoadLoc(b.ri, b.locI, b, in) }
	case kernel.IStoreLoc:
		if in.Float {
			return func(_ *worker, b *bstate, in *kernel.Instr) error { return primStoreLoc(b.rf, b.locF, b, in) }
		}
		return func(_ *worker, b *bstate, in *kernel.Instr) error { return primStoreLoc(b.ri, b.locI, b, in) }
	}
	return nil
}

func primConst[T int64 | float64](regs [][]T, imm T, b *bstate, in *kernel.Instr) error {
	d := regs[in.Dst]
	if s := b.sel; s != nil {
		for _, i := range s {
			d[i] = imm
		}
		return nil
	}
	d = d[:b.n]
	for i := range d {
		d[i] = imm
	}
	return nil
}

func primMov[T int64 | float64](regs [][]T, b *bstate, in *kernel.Instr) error {
	d, src := regs[in.Dst], regs[in.A]
	if s := b.sel; s != nil {
		for _, i := range s {
			d[i] = src[i]
		}
		return nil
	}
	copy(d[:b.n], src[:b.n])
	return nil
}

// primCast compiles ICastIF and ICastFI: Go's conversion between the two
// element types is the interpreter's.
func primCast[D, S int64 | float64](dst [][]D, src [][]S, b *bstate, in *kernel.Instr) error {
	d, x := dst[in.Dst], src[in.A]
	if s := b.sel; s != nil {
		for _, i := range s {
			d[i] = D(x[i])
		}
		return nil
	}
	d = d[:b.n]
	for i, v := range x[:len(d)] {
		d[i] = D(v)
	}
	return nil
}

func primSel[T int64 | float64](regs [][]T, b *bstate, in *kernel.Instr) error {
	cond, d, x, y := b.ri[in.A], regs[in.Dst], regs[in.B], regs[in.C]
	if s := b.sel; s != nil {
		for _, i := range s {
			if cond[i] != 0 {
				d[i] = x[i]
			} else {
				d[i] = y[i]
			}
		}
		return nil
	}
	d = d[:b.n]
	cond, x, y = cond[:len(d)], x[:len(d)], y[:len(d)]
	for i := range d {
		if cond[i] != 0 {
			d[i] = x[i]
		} else {
			d[i] = y[i]
		}
	}
	return nil
}

// primGuard compiles IGuard: the lanes whose predicate is zero leave the
// selection for the rest of the step.
func primGuard(_ *worker, b *bstate, in *kernel.Instr) error {
	cond := b.ri[in.A]
	if s := b.sel; s != nil {
		// In-place compaction: writes trail reads.
		out := s[:0]
		for _, i := range s {
			if cond[i] != 0 {
				out = append(out, i)
			}
		}
		b.sel = out
		return nil
	}
	out := b.selBuf[:0]
	for i, c := range cond[:b.n] {
		if c != 0 {
			out = append(out, int32(i))
		}
	}
	if len(out) < b.n { // else every lane passed: stay dense
		b.sel = out
	}
	return nil
}

// primBin compiles IBin in either domain. Arithmetic and comparisons get
// dedicated loops; trapping and rare operators go per element through slow
// (ibin or fbin), which also keeps their error text the interpreter's.
func primBin[T int64 | float64](regs [][]T, slow func(kernel.BinOp, T, T) (T, error), b *bstate, in *kernel.Instr) error {
	op := in.BOp
	d, x, y := regs[in.Dst], regs[in.A], regs[in.B]
	if s := b.sel; s != nil {
		x, y = x[:len(d)], y[:len(d)]
		switch op {
		case kernel.BAdd:
			for _, i := range s {
				d[i] = x[i] + y[i]
			}
		case kernel.BSub:
			for _, i := range s {
				d[i] = x[i] - y[i]
			}
		case kernel.BMul:
			for _, i := range s {
				d[i] = x[i] * y[i]
			}
		case kernel.BGt:
			for _, i := range s {
				d[i] = T(b2i(x[i] > y[i]))
			}
		case kernel.BGe:
			for _, i := range s {
				d[i] = T(b2i(x[i] >= y[i]))
			}
		case kernel.BEq:
			for _, i := range s {
				d[i] = T(b2i(x[i] == y[i]))
			}
		case kernel.BMin:
			for _, i := range s {
				d[i] = min(x[i], y[i])
			}
		case kernel.BMax:
			for _, i := range s {
				d[i] = max(x[i], y[i])
			}
		default:
			for _, i := range s {
				v, err := slow(op, x[i], y[i])
				if err != nil {
					return err
				}
				d[i] = v
			}
		}
		return nil
	}
	d = d[:b.n]
	x, y = x[:len(d)], y[:len(d)]
	switch op {
	case kernel.BAdd:
		for i := range d {
			d[i] = x[i] + y[i]
		}
	case kernel.BSub:
		for i := range d {
			d[i] = x[i] - y[i]
		}
	case kernel.BMul:
		for i := range d {
			d[i] = x[i] * y[i]
		}
	case kernel.BGt:
		for i := range d {
			d[i] = T(b2i(x[i] > y[i]))
		}
	case kernel.BGe:
		for i := range d {
			d[i] = T(b2i(x[i] >= y[i]))
		}
	case kernel.BEq:
		for i := range d {
			d[i] = T(b2i(x[i] == y[i]))
		}
	case kernel.BMin:
		for i := range d {
			d[i] = min(x[i], y[i])
		}
	case kernel.BMax:
		for i := range d {
			d[i] = max(x[i], y[i])
		}
	default:
		for i := range d {
			v, err := slow(op, x[i], y[i])
			if err != nil {
				return err
			}
			d[i] = v
		}
	}
	return nil
}

// primLogic compiles the integer BAnd and BOr without ibin's short
// circuit: predicate columns are data, and a branch on them mispredicts.
func primLogic(_ *worker, b *bstate, in *kernel.Instr) error {
	and := in.BOp == kernel.BAnd
	d, x, y := b.ri[in.Dst], b.ri[in.A], b.ri[in.B]
	if s := b.sel; s != nil {
		x, y = x[:len(d)], y[:len(d)]
		if and {
			for _, i := range s {
				d[i] = b2i(x[i] != 0) & b2i(y[i] != 0)
			}
		} else {
			for _, i := range s {
				d[i] = b2i(x[i]|y[i] != 0)
			}
		}
		return nil
	}
	d = d[:b.n]
	x, y = x[:len(d)], y[:len(d)]
	if and {
		for i := range d {
			d[i] = b2i(x[i] != 0) & b2i(y[i] != 0)
		}
	} else {
		for i := range d {
			d[i] = b2i(x[i]|y[i] != 0)
		}
	}
	return nil
}

// primLoad compiles ILoad from src, the value slice of buf in the
// instruction's domain. A dense step indexed directly by RegIdx whose idx
// column is unit-stride (bstate.unit) reads consecutive slots: one range
// check, then a straight copy. Anything out of range takes the per-lane
// loop, which names the offending index.
func primLoad[T int64 | float64](regs [][]T, src []T, buf *Buffer, b *bstate, in *kernel.Instr) error {
	d, a := regs[in.Dst], b.ri[in.A]
	if s := b.sel; s != nil {
		for _, i := range s {
			ix := a[i]
			if uint64(ix) >= uint64(len(src)) {
				return fmt.Errorf("load out of bounds: buf %d idx %d len %d", in.Buf, ix, buf.Len())
			}
			d[i] = src[ix]
		}
		return nil
	}
	n := b.n
	if b.unit && in.A == kernel.RegIdx && n > 0 && a[0] >= 0 && a[n-1] < int64(len(src)) {
		copy(d[:n], src[a[0]:a[0]+int64(n)])
		return nil
	}
	d = d[:n]
	for i, ix := range a[:len(d)] {
		if uint64(ix) >= uint64(len(src)) {
			return fmt.Errorf("load out of bounds: buf %d idx %d len %d", in.Buf, ix, buf.Len())
		}
		d[i] = src[ix]
	}
	return nil
}

// primLoadValid compiles ILoadValid: out-of-bounds probes yield 0, maskless
// buffers yield 1, exactly like the interpreter.
func primLoadValid(w *worker, b *bstate, in *kernel.Instr) error {
	buf := w.env.Bufs[in.Buf]
	ln := uint64(buf.Len())
	a, d, valid := b.ri[in.A], b.ri[in.Dst], buf.Valid
	if s := b.sel; s != nil {
		for _, i := range s {
			ix := a[i]
			d[i] = b2i(uint64(ix) < ln && (valid == nil || valid[ix]))
		}
		return nil
	}
	d = d[:b.n]
	for i, ix := range a[:len(d)] {
		d[i] = b2i(uint64(ix) < ln && (valid == nil || valid[ix]))
	}
	return nil
}

// primStore compiles IStore into dst, the value slice of buf in the
// instruction's domain, including the C-register conditional-validity
// protocol (empty slots store the reserved zero representation), with
// primLoad's contiguous case for maskless buffers.
func primStore[T int64 | float64](w *worker, regs [][]T, dst []T, buf *Buffer, b *bstate, in *kernel.Instr) error {
	a, src, valid := b.ri[in.A], regs[in.B], buf.Valid
	var cond []int64
	if valid != nil && in.C > 0 {
		cond = b.ri[in.C]
	}
	n := b.n
	if s := b.sel; s != nil {
		for _, i := range s {
			ix := a[i]
			if uint64(ix) >= uint64(len(dst)) {
				return fmt.Errorf("store out of bounds: buf %d idx %d len %d", in.Buf, ix, buf.Len())
			}
			v, ok := src[i], true
			if cond != nil && cond[i] == 0 {
				v, ok = 0, false
			}
			dst[ix] = v
			if valid != nil {
				valid[ix] = ok
			}
		}
	} else if b.unit && in.A == kernel.RegIdx && valid == nil && n > 0 && a[0] >= 0 && a[n-1] < int64(len(dst)) {
		copy(dst[a[0]:a[0]+int64(n)], src[:n])
	} else {
		for i, ix := range a[:n] {
			if uint64(ix) >= uint64(len(dst)) {
				return fmt.Errorf("store out of bounds: buf %d idx %d len %d", in.Buf, ix, buf.Len())
			}
			v, ok := src[i], true
			if cond != nil && cond[i] == 0 {
				v, ok = 0, false
			}
			dst[ix] = v
			if valid != nil {
				valid[ix] = ok
			}
		}
	}
	// Bytes materialized at this fragment's seam, as the interpreter
	// counts them: 8 per stored lane plus the validity byte.
	per := int64(8)
	if valid != nil {
		per = 9
	}
	w.stats.StoreBytes += per * int64(b.active())
	return nil
}

// primLoadLoc compiles ILoadLoc: each lane reads its own scratch array, a
// column of the per-batch slab loc (slot s of lane i at s*lanes+i).
func primLoadLoc[T int64 | float64](regs [][]T, loc []T, b *bstate, in *kernel.Instr) error {
	d, a := regs[in.Dst], b.ri[in.A]
	lanes, size := int64(b.lanes), uint64(b.nloc)
	if s := b.sel; s != nil {
		for _, i := range s {
			ix := a[i]
			if uint64(ix) >= size {
				return fmt.Errorf("local load out of bounds: idx %d size %d", ix, size)
			}
			d[i] = loc[ix*lanes+int64(i)]
		}
		return nil
	}
	d = d[:b.n]
	for i, ix := range a[:len(d)] {
		if uint64(ix) >= size {
			return fmt.Errorf("local load out of bounds: idx %d size %d", ix, size)
		}
		d[i] = loc[ix*lanes+int64(i)]
	}
	return nil
}

// primStoreLoc compiles IStoreLoc, the mirror of primLoadLoc.
func primStoreLoc[T int64 | float64](regs [][]T, loc []T, b *bstate, in *kernel.Instr) error {
	src, a := regs[in.B], b.ri[in.A]
	lanes, size := int64(b.lanes), uint64(b.nloc)
	if s := b.sel; s != nil {
		for _, i := range s {
			ix := a[i]
			if uint64(ix) >= size {
				return fmt.Errorf("local store out of bounds: idx %d size %d", ix, size)
			}
			loc[ix*lanes+int64(i)] = src[i]
		}
		return nil
	}
	src = src[:b.n]
	for i, ix := range a[:len(src)] {
		if uint64(ix) >= size {
			return fmt.Errorf("local store out of bounds: idx %d size %d", ix, size)
		}
		loc[ix*lanes+int64(i)] = src[i]
	}
	return nil
}
