// Fragment specialization: compiled batch primitives.
//
// The interpreter in exec.go dispatches through a switch statement once per
// instruction per element — O(items × instrs) dispatches. The paper's whole
// point is that fragments are fused, function-call-free kernels, so this
// file compiles each eligible fragment once (cached on the
// *kernel.Fragment, concurrency-safe) into batch primitives: one tight Go
// loop per instruction over a morsel-sized batch of register columns.
// Dispatch cost drops to O(batches × instrs); the loops are
// bounds-check-friendly and auto-vectorizable. IGuard is handled by
// compacting a selection mask, so predication never branches on data inside
// a primitive.
//
// The per-element interpreter remains as the fallback for ineligible
// fragments and as the oracle for differential testing (difftest combo #7
// sweeps specialization on and off against it).
//
// Contracts preserved exactly: cancellation checkpoints each ~1024 items
// (tickN retires a batch's budget at once), governor Limits, panics →
// *PanicError with cross-worker abort, arena ownership, and bit-identical
// results at any morsel size and worker count (def-before-use analysis
// rejects fragments whose registers carry values across work items, and
// a single-store-per-buffer rule rejects load/store interleaving hazards).
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

// specBatchN is the lane count of one register-column batch. It equals
// checkInterval so every batch boundary is a cancellation checkpoint,
// preserving the interpreter's cancellation latency.
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

// resolveSpec picks the execution path for one fragment run and counts it:
// the batch program every participating worker must run (the submitter and
// all pool helpers claim morsels of the same job), or nil to interpret,
// with the reason. count reports whether the caller asked for the device
// counters; whether anyone records the run is deliberately not an input.
func resolveSpec(f *kernel.Fragment, noSpecialize, count, faults bool) (*batchProg, string) {
	var rej *reject
	switch {
	case noSpecialize:
		rej = rejectNoSpecialize
	case faults:
		rej = rejectFaults
	case count:
		rej = rejectCounted
	default:
		bp := specFor(f)
		if bp.ineligible == nil {
			specBatchC.Inc()
			return bp, ""
		}
		rej = bp.ineligible
	}
	specInterpC.Inc()
	rej.c.Inc()
	return nil, rej.reason
}

// ---------------------------------------------------------------------------
// Batch primitives

// batchPrim executes one instruction over the active lanes of a batch.
type batchPrim func(w *worker, b *bstate) error

// batchProg is a fragment compiled to batch primitives: one primitive
// sequence (segment) per loop, executed over batches of up to specBatchN
// consecutive work items.
type batchProg struct {
	segs [][]batchPrim
	// intRegs/fltRegs are the registers needing a column in each file;
	// nregs bounds both index spaces.
	intRegs []kernel.Reg
	fltRegs []kernel.Reg
	nregs   int
	// ineligible, when set, is why the fragment has no batch program
	// (verify.Facts.Reason); the other fields are then empty.
	ineligible *reject
}

// bstate is a worker's per-batch register-column state. Columns live in
// the worker's pooled scratch; sel == nil means all n lanes are active,
// otherwise sel lists active lane offsets in ascending order.
type bstate struct {
	n      int
	sel    []int32
	selBuf []int32
	ri     [][]int64
	rf     [][]float64
}

// active returns the live lane count of the batch.
func (b *bstate) active() int {
	if b.sel == nil {
		return b.n
	}
	return len(b.sel)
}

// compileBatch translates the fragment into batch primitives, or records
// why it is not eligible. Eligibility is decided entirely by the
// verifier's fragment facts (verify.BatchFacts) — the single source of
// truth for def-before-use, store/load disjointness and loop-shape rules —
// so the specializer only translates instructions; it no longer re-derives
// the analysis. Eligibility is conservative: every rejected fragment
// simply interprets.
func compileBatch(f *kernel.Fragment) *batchProg {
	facts := verify.BatchFacts(f)
	if !facts.BatchEligible {
		return &batchProg{ineligible: newReject(facts.Reason)}
	}
	bp := &batchProg{intRegs: facts.IntRegs, fltRegs: facts.FltRegs, nregs: facts.NRegs}
	for _, l := range f.Loops {
		var seg []batchPrim
		for _, in := range l.Body {
			p := compilePrim(in)
			if p == nil {
				// Unreachable for fact-eligible fragments (the whitelist
				// matches compilePrim's coverage); kept as a belt against
				// the two drifting apart.
				return &batchProg{ineligible: newReject("instruction without a batch primitive")}
			}
			seg = append(seg, p)
		}
		bp.segs = append(bp.segs, seg)
	}
	return bp
}

// attachBatch wires the worker's pooled scratch up as register columns for
// bp. Columns are not zeroed: compileBatch proved every read is preceded
// by a definition in the same segment.
func (w *worker) attachBatch(bp *batchProg) {
	sc := w.scratch
	ints := grow(&sc.bcols, len(bp.intRegs)*specBatchN)
	flts := grow(&sc.bfcols, len(bp.fltRegs)*specBatchN)
	if cap(sc.bri) < bp.nregs {
		sc.bri = make([][]int64, bp.nregs)
		sc.brf = make([][]float64, bp.nregs)
	}
	sc.bri = sc.bri[:bp.nregs]
	sc.brf = sc.brf[:bp.nregs]
	clear(sc.bri)
	clear(sc.brf)
	for i, r := range bp.intRegs {
		sc.bri[r] = ints[i*specBatchN : (i+1)*specBatchN]
	}
	for i, r := range bp.fltRegs {
		sc.brf[r] = flts[i*specBatchN : (i+1)*specBatchN]
	}
	if cap(sc.bsel) < specBatchN {
		sc.bsel = make([]int32, specBatchN)
	}
	w.bst = bstate{ri: sc.bri, rf: sc.brf, selBuf: sc.bsel[:0]}
}

// tickN retires n items' worth of checkpoint budget at once — the batch
// path's replacement for per-item tick. The batch path never runs with
// fault injection enabled (resolveSpec falls back to the interpreter), so
// the per-item hook is not replayed here.
func (w *worker) tickN(n int) error {
	w.budget -= n
	if w.budget > 0 {
		return nil
	}
	w.budget = checkInterval
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

// runBatch executes work items [lo, hi) through the batch primitives.
func (w *worker) runBatch(lo, hi int) error {
	bp := w.batch
	b := &w.bst
	f := w.f
	if f.N > 0 && hi > f.N {
		// Lanes with idx >= N skip their (single) loop iteration, and
		// eligible fragments have no prologue or epilogue, so the whole
		// lane is a no-op.
		hi = f.N
	}
	for base := lo; base < hi; base += specBatchN {
		n := min(specBatchN, hi-base)
		if w.checks {
			if err := w.tickN(n); err != nil {
				return err
			}
		}
		gidc, ivc, idxc := b.ri[kernel.RegGID], b.ri[kernel.RegIV], b.ri[kernel.RegIdx]
		for i := 0; i < n; i++ {
			g := int64(base + i)
			gidc[i] = g
			ivc[i] = 0
			idxc[i] = g
		}
		b.n = n
		for _, seg := range bp.segs {
			b.sel = nil
			for _, p := range seg {
				if err := p(w, b); err != nil {
					return err
				}
				if b.sel != nil && len(b.sel) == 0 {
					break // every lane guarded off: skip the rest of the segment
				}
			}
			w.stats.Items += int64(n)
		}
	}
	return nil
}

// compilePrim builds the batch primitive for one instruction, or nil when
// the instruction cannot be compiled.
func compilePrim(in kernel.Instr) batchPrim {
	switch in.Op {
	case kernel.IConstI:
		dst, imm := in.Dst, in.Imm
		return func(_ *worker, b *bstate) error {
			d := b.ri[dst]
			if s := b.sel; s != nil {
				for _, i := range s {
					d[i] = imm
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = imm
				}
			}
			return nil
		}
	case kernel.IConstF:
		dst, imm := in.Dst, in.FImm
		return func(_ *worker, b *bstate) error {
			d := b.rf[dst]
			if s := b.sel; s != nil {
				for _, i := range s {
					d[i] = imm
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = imm
				}
			}
			return nil
		}
	case kernel.IMov:
		dst, a, flt := in.Dst, in.A, in.Float
		return func(_ *worker, b *bstate) error {
			if flt {
				d, src := b.rf[dst], b.rf[a]
				if s := b.sel; s != nil {
					for _, i := range s {
						d[i] = src[i]
					}
				} else {
					copy(d[:b.n], src[:b.n])
				}
			} else {
				d, src := b.ri[dst], b.ri[a]
				if s := b.sel; s != nil {
					for _, i := range s {
						d[i] = src[i]
					}
				} else {
					copy(d[:b.n], src[:b.n])
				}
			}
			return nil
		}
	case kernel.IBin:
		if in.Float {
			return primBinF(in)
		}
		return primBinI(in)
	case kernel.ISel:
		dst, a, bb, cc, flt := in.Dst, in.A, in.B, in.C, in.Float
		return func(_ *worker, b *bstate) error {
			cond := b.ri[a]
			if flt {
				d, x, y := b.rf[dst], b.rf[bb], b.rf[cc]
				if s := b.sel; s != nil {
					for _, i := range s {
						if cond[i] != 0 {
							d[i] = x[i]
						} else {
							d[i] = y[i]
						}
					}
				} else {
					for i := 0; i < b.n; i++ {
						if cond[i] != 0 {
							d[i] = x[i]
						} else {
							d[i] = y[i]
						}
					}
				}
			} else {
				d, x, y := b.ri[dst], b.ri[bb], b.ri[cc]
				if s := b.sel; s != nil {
					for _, i := range s {
						if cond[i] != 0 {
							d[i] = x[i]
						} else {
							d[i] = y[i]
						}
					}
				} else {
					for i := 0; i < b.n; i++ {
						if cond[i] != 0 {
							d[i] = x[i]
						} else {
							d[i] = y[i]
						}
					}
				}
			}
			return nil
		}
	case kernel.ILoad:
		return primLoad(in)
	case kernel.ILoadValid:
		return primLoadValid(in)
	case kernel.IStore:
		return primStore(in)
	case kernel.IGuard:
		a := in.A
		return func(_ *worker, b *bstate) error {
			cond := b.ri[a]
			if s := b.sel; s != nil {
				// In-place compaction: writes trail reads.
				out := s[:0]
				for _, i := range s {
					if cond[i] != 0 {
						out = append(out, i)
					}
				}
				b.sel = out
			} else {
				out := b.selBuf[:0]
				for i := 0; i < b.n; i++ {
					if cond[i] != 0 {
						out = append(out, int32(i))
					}
				}
				b.sel = out
			}
			return nil
		}
	case kernel.ICastIF:
		dst, a := in.Dst, in.A
		return func(_ *worker, b *bstate) error {
			d, src := b.rf[dst], b.ri[a]
			if s := b.sel; s != nil {
				for _, i := range s {
					d[i] = float64(src[i])
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = float64(src[i])
				}
			}
			return nil
		}
	case kernel.ICastFI:
		dst, a := in.Dst, in.A
		return func(_ *worker, b *bstate) error {
			d, src := b.ri[dst], b.rf[a]
			if s := b.sel; s != nil {
				for _, i := range s {
					d[i] = int64(src[i])
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = int64(src[i])
				}
			}
			return nil
		}
	}
	return nil
}

// primBinI compiles an integer IBin. The hot arithmetic and comparison
// operators get dedicated loops (bounds-check-friendly, vectorizable);
// trapping and rare operators share a per-element loop through ibin so
// error messages match the interpreter exactly.
func primBinI(in kernel.Instr) batchPrim {
	op, dr, ar, br := in.BOp, in.Dst, in.A, in.B
	return func(_ *worker, b *bstate) error {
		d, x, y := b.ri[dr], b.ri[ar], b.ri[br]
		s := b.sel
		switch op {
		case kernel.BAdd:
			if s != nil {
				for _, i := range s {
					d[i] = x[i] + y[i]
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = x[i] + y[i]
				}
			}
		case kernel.BSub:
			if s != nil {
				for _, i := range s {
					d[i] = x[i] - y[i]
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = x[i] - y[i]
				}
			}
		case kernel.BMul:
			if s != nil {
				for _, i := range s {
					d[i] = x[i] * y[i]
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = x[i] * y[i]
				}
			}
		case kernel.BGt:
			if s != nil {
				for _, i := range s {
					d[i] = b2i(x[i] > y[i])
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = b2i(x[i] > y[i])
				}
			}
		case kernel.BGe:
			if s != nil {
				for _, i := range s {
					d[i] = b2i(x[i] >= y[i])
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = b2i(x[i] >= y[i])
				}
			}
		case kernel.BEq:
			if s != nil {
				for _, i := range s {
					d[i] = b2i(x[i] == y[i])
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = b2i(x[i] == y[i])
				}
			}
		case kernel.BMin:
			if s != nil {
				for _, i := range s {
					d[i] = min(x[i], y[i])
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = min(x[i], y[i])
				}
			}
		case kernel.BMax:
			if s != nil {
				for _, i := range s {
					d[i] = max(x[i], y[i])
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = max(x[i], y[i])
				}
			}
		case kernel.BAnd:
			if s != nil {
				for _, i := range s {
					d[i] = b2i(x[i] != 0 && y[i] != 0)
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = b2i(x[i] != 0 && y[i] != 0)
				}
			}
		case kernel.BOr:
			if s != nil {
				for _, i := range s {
					d[i] = b2i(x[i] != 0 || y[i] != 0)
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = b2i(x[i] != 0 || y[i] != 0)
				}
			}
		default:
			if s != nil {
				for _, i := range s {
					v, err := ibin(op, x[i], y[i])
					if err != nil {
						return err
					}
					d[i] = v
				}
			} else {
				for i := 0; i < b.n; i++ {
					v, err := ibin(op, x[i], y[i])
					if err != nil {
						return err
					}
					d[i] = v
				}
			}
		}
		return nil
	}
}

// primBinF compiles a float IBin, with the same hot/rare split as
// primBinI.
func primBinF(in kernel.Instr) batchPrim {
	op, dr, ar, br := in.BOp, in.Dst, in.A, in.B
	return func(_ *worker, b *bstate) error {
		d, x, y := b.rf[dr], b.rf[ar], b.rf[br]
		s := b.sel
		switch op {
		case kernel.BAdd:
			if s != nil {
				for _, i := range s {
					d[i] = x[i] + y[i]
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = x[i] + y[i]
				}
			}
		case kernel.BSub:
			if s != nil {
				for _, i := range s {
					d[i] = x[i] - y[i]
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = x[i] - y[i]
				}
			}
		case kernel.BMul:
			if s != nil {
				for _, i := range s {
					d[i] = x[i] * y[i]
				}
			} else {
				for i := 0; i < b.n; i++ {
					d[i] = x[i] * y[i]
				}
			}
		default:
			if s != nil {
				for _, i := range s {
					v, err := fbin(op, x[i], y[i])
					if err != nil {
						return err
					}
					d[i] = v
				}
			} else {
				for i := 0; i < b.n; i++ {
					v, err := fbin(op, x[i], y[i])
					if err != nil {
						return err
					}
					d[i] = v
				}
			}
		}
		return nil
	}
}

// primLoad compiles ILoad. Loads indexed directly by RegIdx over a dense
// batch reduce to a bounds-checked copy.
func primLoad(in kernel.Instr) batchPrim {
	dr, ar, bi, flt := in.Dst, in.A, in.Buf, in.Float
	return func(w *worker, b *bstate) error {
		buf := w.env.Bufs[bi]
		ln := int64(buf.Len())
		a := b.ri[ar]
		s := b.sel
		if flt {
			d := b.rf[dr]
			if s == nil && ar == kernel.RegIdx && b.n > 0 && a[0] >= 0 && a[b.n-1] < ln {
				// A dense batch loading at RegIdx reads consecutive slots:
				// one range check, then a straight copy. Out-of-range
				// batches take the generic loop so the error names the
				// first offending index, as the interpreter would.
				lo := a[0]
				copy(d[:b.n], buf.F[lo:lo+int64(b.n)])
			} else if s != nil {
				for _, i := range s {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("load out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					d[i] = buf.F[ix]
				}
			} else {
				for i := 0; i < b.n; i++ {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("load out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					d[i] = buf.F[ix]
				}
			}
		} else {
			d := b.ri[dr]
			if s == nil && ar == kernel.RegIdx && b.n > 0 && a[0] >= 0 && a[b.n-1] < ln {
				lo := a[0]
				copy(d[:b.n], buf.I[lo:lo+int64(b.n)])
			} else if s != nil {
				for _, i := range s {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("load out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					d[i] = buf.I[ix]
				}
			} else {
				for i := 0; i < b.n; i++ {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("load out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					d[i] = buf.I[ix]
				}
			}
		}
		return nil
	}
}

// primLoadValid compiles ILoadValid: out-of-bounds probes yield 0, maskless
// buffers yield 1, exactly like the interpreter.
func primLoadValid(in kernel.Instr) batchPrim {
	dr, ar, bi := in.Dst, in.A, in.Buf
	return func(w *worker, b *bstate) error {
		buf := w.env.Bufs[bi]
		ln := int64(buf.Len())
		a := b.ri[ar]
		d := b.ri[dr]
		valid := buf.Valid
		if s := b.sel; s != nil {
			for _, i := range s {
				ix := a[i]
				if ix < 0 || ix >= ln {
					d[i] = 0
				} else if valid == nil || valid[ix] {
					d[i] = 1
				} else {
					d[i] = 0
				}
			}
		} else {
			for i := 0; i < b.n; i++ {
				ix := a[i]
				if ix < 0 || ix >= ln {
					d[i] = 0
				} else if valid == nil || valid[ix] {
					d[i] = 1
				} else {
					d[i] = 0
				}
			}
		}
		return nil
	}
}

// primStore compiles IStore, including the C-register conditional-validity
// protocol (empty slots store the reserved zero representation).
func primStore(in kernel.Instr) batchPrim {
	ar, br, cr, bi, flt := in.A, in.B, in.C, in.Buf, in.Float
	return func(w *worker, b *bstate) error {
		buf := w.env.Bufs[bi]
		ln := int64(buf.Len())
		a := b.ri[ar]
		var cond []int64
		if buf.Valid != nil && cr > 0 {
			cond = b.ri[cr]
		}
		s := b.sel
		if flt {
			src := b.rf[br]
			if s == nil && ar == kernel.RegIdx && cond == nil && buf.Valid == nil &&
				b.n > 0 && a[0] >= 0 && a[b.n-1] < ln {
				// Dense contiguous store without a validity mask: one range
				// check, then a straight copy.
				lo := a[0]
				copy(buf.F[lo:lo+int64(b.n)], src[:b.n])
			} else if s != nil {
				for _, i := range s {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("store out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					v, valid := src[i], true
					if cond != nil && cond[i] == 0 {
						v, valid = 0, false
					}
					buf.F[ix] = v
					if buf.Valid != nil {
						buf.Valid[ix] = valid
					}
				}
			} else {
				for i := 0; i < b.n; i++ {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("store out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					v, valid := src[i], true
					if cond != nil && cond[i] == 0 {
						v, valid = 0, false
					}
					buf.F[ix] = v
					if buf.Valid != nil {
						buf.Valid[ix] = valid
					}
				}
			}
		} else {
			src := b.ri[br]
			if s == nil && ar == kernel.RegIdx && cond == nil && buf.Valid == nil &&
				b.n > 0 && a[0] >= 0 && a[b.n-1] < ln {
				lo := a[0]
				copy(buf.I[lo:lo+int64(b.n)], src[:b.n])
			} else if s != nil {
				for _, i := range s {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("store out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					v, valid := src[i], true
					if cond != nil && cond[i] == 0 {
						v, valid = 0, false
					}
					buf.I[ix] = v
					if buf.Valid != nil {
						buf.Valid[ix] = valid
					}
				}
			} else {
				for i := 0; i < b.n; i++ {
					ix := a[i]
					if ix < 0 || ix >= ln {
						return fmt.Errorf("store out of bounds: buf %d idx %d len %d", bi, ix, buf.Len())
					}
					v, valid := src[i], true
					if cond != nil && cond[i] == 0 {
						v, valid = 0, false
					}
					buf.I[ix] = v
					if buf.Valid != nil {
						buf.Valid[ix] = valid
					}
				}
			}
		}
		// Bytes materialized at this fragment's seam, as the interpreter
		// counts them: 8 per stored lane plus the validity byte.
		per := int64(8)
		if buf.Valid != nil {
			per = 9
		}
		w.stats.StoreBytes += per * int64(b.active())
		return nil
	}
}
