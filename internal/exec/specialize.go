// Fragment specialization: compiled batch primitives over tiles of work
// items × iterations.
//
// A per-element interpreter dispatches through a switch statement once per
// instruction per element — O(items × instrs) dispatches. The paper's
// fragments are fused, function-call-free kernels whose Extent is the
// data-parallel dimension and whose Intent is the sequential iterations
// each work item makes — one iteration space, whose cut is a tuning
// decision. This file compiles each fragment once (cached on the
// *kernel.Fragment, concurrency-safe) into batch primitives — one tight Go
// loop per instruction over a column of up to specBatchN pseudo-lanes — and
// one driver (runLanes) walks the whole fragment IR over them: prologue,
// every loop, epilogue, post-loop body. The unit of a loop is a tile: L work
// items side by side × K consecutive iterations of each, pseudo-lane k·L + l.
// When the morsel offers a column's worth of work items K is 1 and the lanes
// run in lock step, as the paper's OpenCL backend runs them; when it offers
// one work item the column is all iterations. What a tile may not reorder is
// a dataflow fact (verify.LoopFacts): the free slice of a loop body — no
// input from another iteration — runs once per tile at full width, the
// carried slice iteration by iteration over the L lanes on the window of the
// free columns that is its iteration, and an accumulator nothing else reads
// folds its K values in one call, in order. Registers are columns and a work
// item's scratch array a column of a slab; both simply persist from tile to
// tile. Dispatch cost drops to O(tiles × instrs). IGuard compacts a selection
// vector, so predication never branches on data inside a primitive.
//
// The same driver has a second geometry, element order: one work item per
// batch, one iteration per tile, and each sequence's primitives in program
// order, free and carried interleaved — legal with one pseudo-lane, and
// exactly the order of a per-element interpreter. Counted runs, NoSpecialize
// and the fault re-run use it. The per-element interpreter itself is a test
// oracle only (oracle_test.go), which FuzzBatchVsInterp and difftest's
// specialize sweeps check both geometries against.
//
// Contracts preserved exactly: a cancellation checkpoint at least every
// checkInterval lane-steps (tick), governor Limits, panics → *PanicError
// with cross-worker abort, scratch from the pooled arena, element order's
// error on a fault, and bit-identical results at any morsel size and worker
// count. The last is the fragment contract verify.BatchFacts checks: tiles
// run ahead of element order, which nothing can observe when every register
// read is dominated by a definition in its own work item, no buffer is both
// loaded and stored (work items write disjoint slots by the algebra's
// contract, see sched.go), and whatever does see another iteration stays in
// the carried slice. A fragment that breaks the contract has no
// scheduling-independent answer, so no geometry runs it: RunFragment refuses
// it with a *ContractError.
//
// One rule picks the geometry, and observing is not part of it: a fragment
// runs in tiles unless the caller disabled specialization or asked for the
// device-model event counters. The driver tallies those around each
// primitive in element order only (tally), because the Near/Rand
// classification is order-sensitive. Fault-injection hooks run at the one
// checkpoint (tick). The cheap record a trace wants — items and store bytes
// — is kept in either geometry unconditionally.
package exec

import (
	"fmt"
	"math"

	"voodoo/internal/kernel"
	"voodoo/internal/metrics"
	"voodoo/internal/vector"
	"voodoo/internal/verify"
)

// Specialization observability: every fragment execution counts the
// geometry it actually took. Both series are pre-created so they exist at
// zero.
var (
	specializedVec = metrics.NewCounterVec("voodoo_fragments_specialized_total",
		"Fragment executions by geometry: batch primitives in tiles (batch) or in element order (interp).", "path")
	specBatchC  = specializedVec.With("batch")
	specInterpC = specializedVec.With("interp")
)

// specBatchN is the most pseudo-lanes one tile holds. It equals
// checkInterval, so no tile is longer than the cancellation latency.
const specBatchN = checkInterval

// tileBytes bounds the register-column footprint of a tile that batches
// along iterations: a fragment with many registers gets narrower columns, so
// the column set a tile's primitives stream through stays cache resident
// (Q1's grouped fold has ~225 registers; at 1024 pseudo-lanes its columns
// would be 1.8 MB). It does not narrow a batch of work items below what the
// morsel offers — that width is what PR 17 measured.
const tileBytes = 256 << 10

// specFor returns the fragment's cached batch compilation — a program, or
// the contract violation it is refused for — compiling it on first use.
// Racing first executions compile redundantly but store identical content.
func specFor(f *kernel.Fragment) *batchProg {
	if v := f.LoadSpec(); v != nil {
		return v.(*batchProg)
	}
	bp := compileBatch(f)
	f.StoreSpec(bp)
	return bp
}

// resolveSpec picks the geometry of one fragment run and counts it: element
// order when the caller disabled specialization or asked for the device
// counters (count), tiles otherwise. Either way every participating worker
// runs the fragment's batch program; whether anyone records the run is
// deliberately not an input.
func resolveSpec(noSpecialize, count bool) (elem bool) {
	if noSpecialize || count {
		specInterpC.Inc()
		return true
	}
	specBatchC.Inc()
	return false
}

// ---------------------------------------------------------------------------
// Batch primitives

// batchPrim executes one instruction over the active pseudo-lanes: the
// primitive for its opcode and domain (primFor), applied to the
// instruction. snap names a selection snapshot of the tile: the one a guard
// of the wide pass leaves behind, or the one in effect at a carried
// primitive's program position (0 = the tile's own selection).
type batchPrim struct {
	fn   func(w *worker, b *bstate, in *kernel.Instr) error
	in   *kernel.Instr // in the fragment, which is immutable once compiled
	snap int
	// early: a guard on an early point (verify.LoopFacts.Early), which runs
	// only when the run's buffers meet the program's needs.
	early bool
}

// batchSeq is one compiled instruction sequence. wide holds, in program
// order, what runs once per tile at full width: the free slice, the
// reductions and the guards among them. carried holds what runs iteration by
// iteration (verify.Carried); the prologue and epilogue have none. order
// holds both, in program order, for element order. A loop
// also has the iteration bound each lane observes — static (Loop.Bound, the
// fragment's Intent, or Locals for the post-loop body), capped per lane by
// the value boundReg holds at loop entry when boundReg > 0.
type batchSeq struct {
	wide, carried, order []batchPrim
	// chains are the carried slice as scratch reductions when that is all
	// it holds (verify.LoopFacts.Chains): a tile whose chains touch disjoint
	// slots runs each as one primitive instead of the carried pass.
	chains   []batchChain
	lf       *verify.LoopFacts // of a loop: the registers to window and to spread
	bound    int
	boundReg kernel.Reg
	postLoop bool // iterates RegJ over the scratch slots, not RegIV/RegIdx
	// elements: a blocked loop over the full Intent whose iterations are
	// independent (verify.LoopFacts.Independent). Nothing observes the order
	// its tiles enumerate them in, so they take element order — work item by
	// work item — in which blocked accesses are contiguous.
	elements bool
}

// batchProg is a fragment compiled to batch primitives, one sequence per
// section of the fragment IR (see runLanes).
type batchProg struct {
	pre, post, postLoop batchSeq
	loops               []batchSeq
	// consts are the constants with one definition in the fragment: their
	// columns are filled when a worker attaches, not on every step.
	consts []*kernel.Instr
	// intRegs/fltRegs are the registers needing a column in each file.
	intRegs []kernel.Reg
	fltRegs []kernel.Reg
	// width is the most pseudo-lanes a tile of several iterations holds
	// (tileBytes over the column count); iters the most iterations any loop
	// can make; snaps the most selection snapshots a tile keeps, wins the
	// most registers its carried pass windows, per file.
	width, iters, snaps int
	wins                [2]int
	// nregs bounds the register index space of the fragment, for the
	// column tables.
	nregs int
	// early counts the guards on early points in the loops' wide slices, and
	// needs is what they need of the buffers (verify.Facts.Needs).
	early int
	needs []verify.Need
	// refused, when set, is the contract violation the fragment is refused
	// for (verify.Facts.Violation); nothing else is then filled.
	refused *ContractError
}

// snapshot is the selection at one program position of a tile: the listed
// pseudo-lanes, ascending, or all of [0, n) when sel is nil. cur is how far
// the carried pass has consumed sel.
type snapshot struct {
	sel []int32
	n   int
	cur int
}

// bstate is a worker's register-column state. Columns live in the worker's
// pooled scratch and persist across the tiles of a batch. A batch is lanes
// consecutive work items; a tile is rows consecutive iterations of them,
// pseudo-lane k·lanes + l holding iteration k of work item l. Within one
// primitive call pseudo-lanes [0, n) are live; sel == nil means all of them
// are active, otherwise sel lists the active ones in ascending order. Row 0
// of a column — its first lanes entries — is where a register's value
// stands between sections and where carried registers live.
type bstate struct {
	n      int
	sel    []int32
	selBuf []int32
	// ri/rf are the columns primitives index. During the carried pass the
	// entries of the windowed registers are cut to the iteration's window;
	// winI/winF hold their full columns meanwhile.
	ri, winI [][]int64
	rf, winF [][]float64
	// unit: the RegIdx column is unit-stride over the pseudo-lanes of the
	// tile, so a dense access indexed by it is a contiguous range.
	unit bool
	// stride is the width the columns are cut to.
	stride int
	// lanes is the work-item count of the current batch and rows the most
	// iterations a tile of the current loop holds. lane backs laneOf, valid
	// for laneRows rows of laneLanes lanes.
	lanes, rows         int
	lane                []int32
	laneLanes, laneRows int
	// Scratch arrays: slot s of lane l is loc[s*lanes+l] — the iterations
	// of a work item share its array; one of locI/locF is in use, cut for
	// locLanes lanes.
	locLanes int
	nloc     int
	locI     []int64
	locF     []float64
	// bnd holds the per-lane iteration bounds of a dynamic-bound loop.
	bnd []int64
	// sels backs the selection vectors of a tile, stride entries each:
	// region 0 the tile's own, then one per snapshot, then the one the
	// carried pass and unrecorded guards write.
	sels  []int32
	snaps []snapshot
}

// active returns the active pseudo-lane count of the step.
func (b *bstate) active() int {
	if b.sel == nil {
		return b.n
	}
	return len(b.sel)
}

// laneOf returns the work item of every pseudo-lane of the current loop's
// tiles, lane[p] = p mod lanes. Few primitives need it (a reduction under a
// selection, a scratch load in the free slice), so it is built on first use.
func (b *bstate) laneOf() []int32 {
	if b.laneLanes != b.lanes || b.laneRows < b.rows {
		b.laneLanes, b.laneRows = b.lanes, b.rows
		for p, l := 0, 0; p < b.rows*b.lanes; p++ {
			b.lane[p] = int32(l)
			if l++; l == b.lanes {
				l = 0
			}
		}
	}
	return b.lane
}

// region returns selection region i, empty.
func (b *bstate) region(i int) []int32 {
	return b.sels[i*b.stride : i*b.stride : (i+1)*b.stride]
}

// compileBatch translates the fragment into batch primitives, or records
// the contract violation it is refused for. The contract and the split of
// every loop body into its free and carried slices are decided entirely by
// the verifier's fragment facts (verify.BatchFacts), so the specializer only
// translates instructions: every opcode the contract admits has a primitive
// in either domain (TestEveryInstructionHasAPrimitive).
func compileBatch(f *kernel.Fragment) *batchProg {
	facts := verify.BatchFacts(f)
	if facts.Violation != nil {
		return &batchProg{refused: &ContractError{Diag: *facts.Violation}}
	}
	bp := &batchProg{nregs: f.NumRegs(), iters: 1, needs: facts.Needs}
	bp.intRegs, bp.fltRegs = facts.IntRegs, facts.FltRegs
	bp.width = max(1, min(specBatchN, tileBytes/(8*(len(bp.intRegs)+len(bp.fltRegs)))))
	// One backing for every sequence's primitives in tiles, one for them in
	// program order: each instruction of the fragment becomes at most one,
	// and each early point one more guard in tiles.
	total := len(f.Pre) + len(f.Post) + len(f.PostLoopBody)
	for _, l := range f.Loops {
		total += len(l.Body)
	}
	for _, lf := range facts.Loops {
		bp.early += len(lf.Early)
	}
	prims, order := make([]batchPrim, 0, total+bp.early), make([]batchPrim, 0, total)
	guards := make([]kernel.Instr, 0, bp.early)
	seq := func(instrs []kernel.Instr, lf *verify.LoopFacts, bound int) batchSeq {
		s := batchSeq{bound: bound}
		carried := 0
		var early []verify.Early
		if lf != nil {
			s.lf, early = lf, lf.Early
			bp.wins[0], bp.wins[1] = max(bp.wins[0], len(lf.Win[0])), max(bp.wins[1], len(lf.Win[1]))
			for _, c := range lf.Class {
				if c == verify.Carried {
					carried++
				}
			}
			bp.iters = max(bp.iters, bound)
		}
		at, nwide := len(prims), len(instrs)-carried+len(early)
		prims = prims[:at+nwide+carried]
		s.wide = prims[at : at : at+nwide]
		s.carried = prims[at+nwide : at+nwide : at+nwide+carried]
		s.order = order[len(order):len(order)]
		snap := 0
		var chains []verify.Chain
		if lf != nil && lf.Chains != nil {
			chains = lf.Chains
			s.chains = make([]batchChain, 0, len(chains))
		}
		for i := range instrs {
			in := &instrs[i]
			if len(early) > 0 && early[0].At < i {
				// The early guard on the conjunct instruction i-1 defined.
				// No carried primitive runs between it and its guard, so it
				// needs no snapshot of its own.
				guards = append(guards, kernel.Instr{Op: kernel.IGuard, A: early[0].Reg})
				s.wide = append(s.wide, batchPrim{fn: primGuard, in: &guards[len(guards)-1], early: true})
				early = early[1:]
			}
			if facts.Hoisted(in) {
				bp.consts = append(bp.consts, in)
				continue
			}
			p := batchPrim{fn: primFor(in), in: in}
			class := verify.Free
			if lf != nil {
				class = lf.Class[i]
			}
			switch {
			case class == verify.Carried:
				p.snap = snap
				s.carried = append(s.carried, p)
				if len(chains) > 0 && chains[0].Store == i {
					// At its store: a lane takes part in the update when it
					// gets this far.
					op := &instrs[chains[0].Op]
					s.chains = append(s.chains, batchChain{float: op.Float,
						i: in.A, x: op.B, op: op.BOp, snap: snap})
					chains = chains[1:]
				}
			case class == verify.Reduce:
				p.fn = foldFor(in)
				s.wide = append(s.wide, p)
			default:
				if in.Op == kernel.IGuard && carried > 0 {
					// The carried pass needs the selection as it stood here.
					snap++
					p.snap = snap
				}
				s.wide = append(s.wide, p)
			}
			s.order = append(s.order, p)
		}
		order = order[:len(order)+len(s.order)]
		bp.snaps = max(bp.snaps, snap)
		return s
	}
	bp.pre = seq(f.Pre, nil, 1)
	for li, l := range f.Loops {
		bound := l.Bound
		if bound <= 0 {
			bound = f.Intent
		}
		s := seq(l.Body, &facts.Loops[li], bound)
		s.boundReg = l.BoundReg
		s.elements = facts.Loops[li].Independent && !f.Strided && f.Intent > 1 && bound == f.Intent && l.BoundReg <= 0
		bp.loops = append(bp.loops, s)
	}
	bp.post = seq(f.Post, nil, 1)
	if len(f.PostLoopBody) > 0 {
		bp.postLoop = seq(f.PostLoopBody, &facts.Loops[len(f.Loops)], f.Locals)
		bp.postLoop.postLoop = true
	}
	return bp
}

// attachBatch cuts the worker's pooled scratch into register columns for bp
// wide enough for lanes work items: as wide as a tile of several iterations
// may get when the fragment has that many to offer. Columns are not zeroed —
// the fragment contract has every read dominated by a definition in the same
// work item — except that the hoisted constants are filled here, once; a
// voodoo_poison build fills the rest with poison, so that a read of a lane
// nothing defined shows in the answer. It also decides whether this run's
// tiles take their early points: only when the environment's buffers meet
// everything the proofs of their windows need.
func (w *worker) attachBatch(bp *batchProg, lanes int) {
	f, sc := w.f, w.scratch
	w.early = bp.early > 0 && meets(w.env, bp.needs)
	if w.early && !w.elem {
		w.stats.Early = bp.early
	}
	stride := max(lanes, min(bp.width, lanes*bp.iters))
	ints := grow(&sc.bcols, (len(bp.intRegs)+1)*stride)
	flts := grow(&sc.bfcols, len(bp.fltRegs)*stride)
	if vector.Poison {
		fill(ints, vector.PoisonInt)
		fill(flts, math.NaN())
	}
	if cap(sc.bri) < bp.nregs {
		sc.bri = make([][]int64, bp.nregs)
		sc.brf = make([][]float64, bp.nregs)
	}
	sc.bri = sc.bri[:bp.nregs]
	sc.brf = sc.brf[:bp.nregs]
	clear(sc.bri)
	clear(sc.brf)
	b := w.bst
	*b = bstate{ri: sc.bri, rf: sc.brf, stride: stride, locLanes: lanes, nloc: f.Locals,
		bnd: ints[len(bp.intRegs)*stride:]}
	for i, r := range bp.intRegs {
		b.ri[r] = ints[i*stride : (i+1)*stride]
	}
	for i, r := range bp.fltRegs {
		b.rf[r] = flts[i*stride : (i+1)*stride]
	}
	if cap(sc.bwinI) < bp.wins[0] || cap(sc.bwinF) < bp.wins[1] {
		sc.bwinI, sc.bwinF = make([][]int64, bp.wins[0]), make([][]float64, bp.wins[1])
	}
	b.winI, b.winF = sc.bwinI[:bp.wins[0]], sc.bwinF[:bp.wins[1]]
	for _, in := range bp.consts {
		if in.Op == kernel.IConstI {
			fill(b.ri[in.Dst], in.Imm)
		} else {
			fill(b.rf[in.Dst], in.FImm)
		}
	}
	if n := (bp.snaps + 3) * stride; cap(sc.bsel) < n {
		sc.bsel = make([]int32, n)
	}
	b.lane = sc.bsel[:stride]
	b.sels = sc.bsel[stride : (bp.snaps+3)*stride]
	if cap(sc.bsnaps) < bp.snaps+1 {
		sc.bsnaps = make([]snapshot, bp.snaps+1)
	}
	b.snaps = sc.bsnaps[:bp.snaps+1]
	if f.LocalsFloat {
		b.locF = grow(&sc.blocF, f.Locals*lanes)
	} else {
		b.locI = grow(&sc.blocI, f.Locals*lanes)
	}
}

// meets reports whether env's buffers hold what needs lists.
func meets(env *Env, needs []verify.Need) bool {
	for _, n := range needs {
		if b := env.Bufs[n.Buf]; (b.Kind == vector.Float) != n.Float || b.Len() < n.Slots {
			return false
		}
	}
	return true
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// run executes work items [lo, hi) through the batch primitives. When a
// primitive faults in tiles, the range is run again in element order and
// that run's error is reported: tiles reach a fault in their own order, and
// callers are promised the first fault in element order. No fragment that
// runs loads a buffer it stores (the contract's VF010), so the second run
// reads what the first read and gets to its own first fault.
func (w *worker) run(lo, hi int) error {
	fault, err := w.runLanes(lo, hi)
	if fault && !w.elem {
		w.elem = true
		if _, eerr := w.runLanes(lo, hi); eerr != nil {
			err = eerr
		}
		w.elem = false
	}
	return err
}

// liveLanes reports how many of the n lanes starting at work item base
// still have idx < N at iteration iv. idx grows with the lane and with iv,
// so the live lanes are a prefix and a lane that left stays out.
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

// runLanes is the batch tier's one driver: the whole fragment IR over tiles
// of work items × iterations. A batch is up to specBatchN consecutive work
// items — the lanes. The prologue runs once over them; each loop runs as
// tiles of as many consecutive iterations as the columns hold beside the
// lanes (one, when the morsel fills a column with work items: then a tile is
// a step and the lanes run in lock step; all of them, when nothing is
// carried and the columns are long enough); then the epilogue, then the
// post-loop body tiled the same way over the scratch slots. Register columns
// and the scratch slab simply persist, so fold accumulators, filter cursors
// and dynamic bounds need no recognition. In element order a batch is one
// work item and a tile one iteration. fault reports that err came from a
// primitive rather than a checkpoint.
func (w *worker) runLanes(lo, hi int) (fault bool, err error) {
	bp, f := w.batch, w.f
	if hi <= lo {
		return false, nil
	}
	step := specBatchN
	if w.elem {
		step = 1
	}
	if need := min(step, hi-lo); need > w.bst.locLanes {
		w.attachBatch(bp, need)
	}
	b := w.bst
	for base := lo; base < hi; base += step {
		n := min(step, hi-base)
		b.lanes, b.rows = n, 1
		for i, gid := 0, b.ri[kernel.RegGID]; i < n; i++ {
			gid[i] = int64(base + i)
		}
		if f.LocalsFloat {
			fill(b.locF[:f.Locals*n], f.LocalsInit)
		} else {
			fill(b.locI[:f.Locals*n], int64(f.LocalsInit))
		}
		if fault, err := w.runTile(&bp.pre, n, nil, 1); err != nil {
			return fault, err
		}
		for li := range bp.loops {
			if fault, err := w.runLoop(&bp.loops[li], base); err != nil {
				return fault, err
			}
		}
		if fault, err := w.runTile(&bp.post, n, nil, 1); err != nil {
			return fault, err
		}
		if len(f.PostLoopBody) > 0 {
			if fault, err := w.runLoop(&bp.postLoop, base); err != nil {
				return fault, err
			}
		}
	}
	return false, nil
}

// runLoop runs one loop (or the post-loop body) of the current batch, whose
// first work item is base, as tiles of consecutive iterations. While every
// lane is inside its bound a tile is dense: whole rows, the last of them
// possibly a prefix (idx < N leaves a prefix of the lanes live). Past the
// smallest dynamic bound the tile's selection lists the pseudo-lanes still
// iterating. Lanes only ever leave a loop, so it ends with the first tile
// that has none.
func (w *worker) runLoop(l *batchSeq, base int) (fault bool, err error) {
	b, f := w.bst, w.f
	lanes := b.lanes
	if l.elements && !w.elem {
		return w.runElements(l, base)
	}
	live := func(iv int) int {
		if l.postLoop {
			return lanes
		}
		return liveLanes(f, base, lanes, iv)
	}
	// Every lane runs iterations [0, dense); from there to steps the
	// per-lane bounds decide.
	steps, dense := l.bound, l.bound
	var bnd []int64
	if l.boundReg > 0 {
		// Read once, at loop entry, as the interpreter reads it.
		bnd = b.bnd[:lanes]
		least, most := int64(l.bound), int64(0)
		for i, v := range b.ri[l.boundReg][:lanes] {
			v = min(v, int64(l.bound))
			bnd[i] = v
			least, most = min(least, v), max(most, v)
		}
		steps, dense = int(most), int(least)
	}
	// As many rows as fit beside the lanes: in the columns, and in the
	// footprint bound — which a tail batch of few lanes would otherwise
	// exceed, its columns having been cut for a full one.
	depth := max(1, min(min(b.stride, max(w.batch.width, lanes))/lanes, steps))
	if w.elem {
		depth = 1
	}
	b.rows = depth
	if depth > 1 {
		for _, r := range l.lf.Spread[0] {
			spread(b.ri[r], lanes, depth)
		}
		for _, r := range l.lf.Spread[1] {
			spread(b.rf[r], lanes, depth)
		}
	}
	ivc, idxc, jc := b.ri[kernel.RegIV], b.ri[kernel.RegIdx], b.ri[kernel.RegJ]
	for iv0 := 0; iv0 < steps; {
		rows := min(depth, steps-iv0)
		// The tile spans pseudo-lanes [0, n), active of them active.
		var sel []int32
		var n, active int
		if iv0 < dense {
			rows = min(rows, dense-iv0)
			if live(iv0+rows-1) < lanes {
				// Up to and including the first row some lane has left.
				rows = 1
				for live(iv0+rows-1) == lanes {
					rows++
				}
			}
			n = (rows-1)*lanes + live(iv0+rows-1)
			active = n
		} else {
			sel = b.region(0)
			for k := 0; k < rows; k++ {
				for i, v := range bnd[:live(iv0+k)] {
					if int64(iv0+k) < v {
						sel = append(sel, int32(k*lanes+i))
					}
				}
			}
			n, active = rows*lanes, len(sel)
		}
		if active == 0 {
			break
		}
		if w.stats.TileLanes == 0 && !w.elem {
			w.stats.TileLanes, w.stats.TileIters = lanes, rows
		}
		for k := 0; k < rows; k++ {
			row := k * lanes
			switch {
			case l.postLoop:
				fill(jc[row:row+lanes], int64(iv0+k))
			case f.Strided:
				x := int64((iv0+k)*f.Extent + base)
				for i := 0; i < lanes; i++ {
					idxc[row+i], ivc[row+i] = x+int64(i), int64(iv0+k)
				}
			default:
				x := int64(base*f.Intent + iv0 + k)
				for i := 0; i < lanes; i++ {
					idxc[row+i], ivc[row+i] = x, int64(iv0+k)
					x += int64(f.Intent)
				}
			}
		}
		// Neighbouring pseudo-lanes hold neighbouring elements when a row
		// is a run of the index space and the rows follow each other in it.
		if f.Strided {
			b.unit = rows == 1 || lanes == f.Extent
		} else {
			b.unit = lanes == 1 || f.Intent == 1
		}
		if fault, err := w.runTile(l, n, sel, rows); err != nil {
			return fault, err
		}
		if !l.postLoop {
			// Loop iterations executed, guarded off or not.
			w.stats.Items += int64(active)
		}
		iv0 += rows
	}
	return false, nil
}

// runElements runs an independent blocked loop of the current batch in
// element order: a tile is a run of consecutive elements, whole work items
// and all their iterations when the columns hold that many. The work-item
// ids of row 0 are put back afterwards.
func (w *worker) runElements(l *batchSeq, base int) (fault bool, err error) {
	b, f := w.bst, w.f
	gidc, ivc, idxc := b.ri[kernel.RegGID], b.ri[kernel.RegIV], b.ri[kernel.RegIdx]
	lo, hi := base*f.Intent, (base+b.lanes)*f.Intent
	if f.N > 0 {
		hi = min(hi, f.N)
	}
	b.unit = true
	for e := lo; e < hi && err == nil; e += b.stride {
		n := min(b.stride, hi-e)
		if w.stats.TileLanes == 0 {
			w.stats.TileLanes, w.stats.TileIters = max(1, n/f.Intent), min(n, f.Intent)
		}
		for i := 0; i < n; {
			g, v := (e+i)/f.Intent, (e+i)%f.Intent
			run := min(n-i, f.Intent-v)
			for j := 0; j < run; j++ {
				gidc[i+j], ivc[i+j], idxc[i+j] = int64(g), int64(v+j), int64(e+i+j)
			}
			i += run
		}
		fault, err = w.runTile(l, n, nil, 1)
		w.stats.Items += int64(n)
	}
	for i := 0; i < b.lanes; i++ {
		gidc[i] = int64(base + i)
	}
	return fault, err
}

// spread repeats the first lanes entries of col over rows rows.
func spread[T any](col []T, lanes, rows int) {
	for k := 1; k < rows; k++ {
		copy(col[k*lanes:(k+1)*lanes], col[:lanes])
	}
}

// runTile runs one instruction sequence over a tile of rows iterations of
// the batch's lanes: pseudo-lanes [0, n), all of them or those sel lists. The wide pass
// runs the free slice once over all of them; the carried pass then runs the
// carried slice once per iteration, in program order and in one pass — two
// scratch chains may alias across iterations — over the lanes of that
// iteration, finding the free registers it reads in the iteration's window
// of their columns and the selection as it stood at each primitive's program
// position (sel is ascending and rows are contiguous, so the window of a
// snapshot is a contiguous run of it). In element order the tile is one
// pseudo-lane and the sequence runs in program order instead, each primitive
// tallied when the run is counted. A checkpoint precedes the tile; fault
// tells a primitive's error from the checkpoint's.
func (w *worker) runTile(s *batchSeq, n int, sel []int32, rows int) (fault bool, err error) {
	if len(s.order) == 0 {
		return false, nil
	}
	b := w.bst
	b.n, b.sel = n, sel
	if w.checks {
		if err := w.tick(b.active(), int(b.ri[kernel.RegGID][0])); err != nil {
			return false, err
		}
	}
	last := len(b.snaps)
	b.selBuf = b.region(last)
	if w.elem {
		for i := range s.order {
			p := &s.order[i]
			if err := p.fn(w, b, p.in); err != nil {
				return true, err
			}
			if w.count {
				w.tally(p.in)
			}
			if b.sel != nil && len(b.sel) == 0 {
				break // a guard turned the pseudo-lane off
			}
		}
		return false, nil
	}
	b.snaps[0] = snapshot{sel: sel, n: n}
	clear(b.snaps[1:]) // nothing gets as far as a guard the wide pass does not reach
	for i := range s.wide {
		p := &s.wide[i]
		if p.early && !w.early {
			continue
		}
		if p.snap > 0 {
			b.selBuf = b.region(p.snap)
		}
		if err := p.fn(w, b, p.in); err != nil {
			return true, err
		}
		if p.snap > 0 {
			b.snaps[p.snap] = snapshot{sel: b.sel, n: b.n}
			b.selBuf = b.region(last)
		}
		if b.sel != nil && len(b.sel) == 0 {
			break // every pseudo-lane guarded off: skip the rest of the slice
		}
	}
	if len(s.carried) == 0 {
		return false, nil
	}
	if s.chains != nil {
		if b.disjoint(s.chains) {
			for i := range s.chains {
				c := &s.chains[i]
				if c.float {
					primChain(b.rf, b.locF, b, c)
				} else {
					primChain(b.ri, b.locI, b, c)
				}
			}
			w.stats.AccWide++
			return false, nil
		}
		w.stats.AccCarried++
	}
	lanes := b.lanes
	if rows > 1 {
		for j, r := range s.lf.Win[0] {
			b.winI[j] = b.ri[r]
		}
		for j, r := range s.lf.Win[1] {
			b.winF[j] = b.rf[r]
		}
	}
	for k := 0; k < rows && err == nil; k++ {
		lo := k * lanes
		if rows > 1 {
			for j, r := range s.lf.Win[0] {
				b.ri[r] = b.winI[j][lo:]
			}
			for j, r := range s.lf.Win[1] {
				b.rf[r] = b.winF[j][lo:]
			}
		}
		at := -1
		for i := range s.carried {
			p := &s.carried[i]
			if p.snap != at {
				at = p.snap
				if !b.window(&b.snaps[at], lo, lanes) {
					break // snapshots only shrink: nothing later is selected either
				}
			}
			if err = p.fn(w, b, p.in); err != nil {
				break
			}
			if b.sel != nil && len(b.sel) == 0 {
				break
			}
		}
	}
	if rows > 1 {
		for j, r := range s.lf.Win[0] {
			b.ri[r] = b.winI[j]
		}
		for j, r := range s.lf.Win[1] {
			b.rf[r] = b.winF[j]
		}
	}
	return err != nil, err
}

// tally counts one instruction an element-order run has just executed into
// the device-model event counters: an ALU operation in its domain (a select
// is an integer one), a guard and whether it passed, a scratch-array access,
// or a global access classified by the slot its index register names. The
// hoisted constants never reach it, and they cost nothing in the model.
func (w *worker) tally(in *kernel.Instr) {
	st, ri := &w.stats, w.bst.ri
	switch in.Op {
	case kernel.IBin:
		if in.Float {
			st.FloatOps++
		} else {
			st.IntOps++
		}
	case kernel.ISel:
		st.IntOps++
	case kernel.IGuard:
		st.Guards++
		st.GuardsPass += b2i(ri[in.A][0] != 0)
	case kernel.ILoadLoc, kernel.IStoreLoc:
		st.LocalOps++
	case kernel.ILoad, kernel.ILoadValid, kernel.IStore:
		buf := w.env.Bufs[in.Buf]
		// Validity masks are byte-sized; a validity probe against a buffer
		// with no mask is just a bounds check — pure arithmetic the paper's
		// compiler emits inline (or removes with static knowledge).
		width := int64(8)
		if in.Op == kernel.ILoadValid {
			if buf.Valid == nil {
				st.IntOps += 2
				return
			}
			width = 1
		}
		if in.Seq {
			st.SeqBytes += width
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
		st.CountAccess(w.lines, key, ri[in.A][0], int64(buf.Len())*width, width)
	}
}

// batchChain is a scratch reduction (verify.Chain) compiled to one
// primitive: loc[i] = op(loc[i], x) for the pseudo-lanes of the selection
// snapshot in effect at its store.
type batchChain struct {
	float bool // the scratch array's domain
	i, x  kernel.Reg
	op    kernel.BinOp
	snap  int
}

// disjoint reports whether the scratch reductions of the tile touch
// pairwise disjoint intervals of in-range slots: then no two meet in a slot
// of any lane, and each may run over the whole tile on its own. Otherwise
// the carried pass runs them, and reports any slot out of range.
func (b *bstate) disjoint(chains []batchChain) bool {
	var buf [16][2]int64
	spans := buf[:0]
	for i := range chains {
		c := &chains[i]
		s, idx := &b.snaps[c.snap], b.ri[c.i]
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		if s.sel != nil {
			for _, p := range s.sel {
				lo, hi = min(lo, idx[p]), max(hi, idx[p])
			}
		} else {
			for _, v := range idx[:s.n] {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		if lo > hi {
			continue // no lane gets as far as this chain
		}
		if lo < 0 || hi >= int64(b.nloc) {
			return false
		}
		for _, sp := range spans {
			if lo <= sp[1] && sp[0] <= hi {
				return false
			}
		}
		spans = append(spans, [2]int64{lo, hi})
	}
	return true
}

// primChain runs one scratch reduction over its snapshot in pseudo-lane
// order, which for each lane is iteration order: a float sum rounds as the
// interpreter's. disjoint has checked every slot is in range.
func primChain[T int64 | float64](regs [][]T, loc []T, b *bstate, c *batchChain) {
	s, idx, x, lane := &b.snaps[c.snap], b.ri[c.i], regs[c.x], b.laneOf()
	lanes, op := int64(b.lanes), c.op
	if s.sel != nil {
		for _, p := range s.sel {
			j := idx[p]*lanes + int64(lane[p])
			loc[j] = reduce(op, loc[j], x[p])
		}
		return
	}
	for p := range s.n {
		j := idx[p]*lanes + int64(lane[p])
		loc[j] = reduce(op, loc[j], x[p])
	}
}

// reduce applies a scratch reduction's operator as ibin and fbin do.
func reduce[T int64 | float64](op kernel.BinOp, a, b T) T {
	switch op {
	case kernel.BAdd:
		return a + b
	case kernel.BSub:
		return a - b
	case kernel.BMul:
		return a * b
	case kernel.BMin:
		return min(a, b)
	}
	return max(a, b)
}

// window makes the pseudo-lanes of s in [lo, lo+lanes) — one iteration of
// the tile — the active lanes, as offsets into that window, and reports
// whether there are any.
func (b *bstate) window(s *snapshot, lo, lanes int) bool {
	if s.sel == nil {
		b.n, b.sel = min(lanes, s.n-lo), nil
		return b.n > 0
	}
	from, to := s.cur, len(s.sel)
	if to > from && int(s.sel[to-1]) >= lo+lanes {
		for to = from; int(s.sel[to]) < lo+lanes; to++ {
		}
	}
	s.cur = to
	b.n, b.sel = lanes, s.sel[from:to]
	if lo > 0 {
		// Later iterations rebase into the carried pass's own region; the
		// first one already holds offsets.
		out := b.selBuf[:0]
		for _, p := range b.sel {
			out = append(out, p-int32(lo))
		}
		b.sel = out
	}
	return to > from
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
	fill(d[:b.n], imm)
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

// primGuard compiles IGuard: the pseudo-lanes whose predicate is zero leave
// the selection for the rest of the sequence. The survivors are written to
// selBuf, which the driver points at the region to keep them in; when that
// is where the selection already lives, writes trail reads. The compaction
// does not branch on the predicate: every lane is written, and the cursor
// advances past the ones that pass.
func primGuard(_ *worker, b *bstate, in *kernel.Instr) error {
	cond := b.ri[in.A]
	if s := b.sel; s != nil {
		out, k := b.selBuf[:len(s)], 0
		for _, i := range s {
			out[k] = i
			k += int(b2i(cond[i] != 0))
		}
		b.sel = out[:k]
		return nil
	}
	out, k := b.selBuf[:b.n], 0
	for i, c := range cond[:len(out)] {
		out[k] = int32(i)
		k += int(b2i(c != 0))
	}
	if k < b.n { // else every lane passed: stay dense
		b.sel = out[:k]
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

// foldFor returns the primitive for a reduction (verify.Reduce).
func foldFor(in *kernel.Instr) func(*worker, *bstate, *kernel.Instr) error {
	if in.Float {
		return func(_ *worker, b *bstate, in *kernel.Instr) error { return primFold(b.rf, fbin, b, in) }
	}
	return func(_ *worker, b *bstate, in *kernel.Instr) error { return primFold(b.ri, ibin, b, in) }
}

// primFold compiles acc = op(acc, x) over a whole tile: the accumulator
// stays at lane width and each lane folds the x of its pseudo-lanes in
// ascending order — iteration order, operand order and all, so a float sum
// rounds exactly as the interpreter's. The dense walk is lane-major (a
// register-resident accumulator per lane); a selection is walked as listed.
func primFold[T int64 | float64](regs [][]T, slow func(kernel.BinOp, T, T) (T, error), b *bstate, in *kernel.Instr) error {
	op := in.BOp
	acc, x := regs[in.Dst], regs[in.B]
	if s := b.sel; s != nil {
		lane := b.laneOf()
		switch op {
		case kernel.BAdd:
			for _, p := range s {
				acc[lane[p]] += x[p]
			}
		case kernel.BMin:
			for _, p := range s {
				acc[lane[p]] = min(acc[lane[p]], x[p])
			}
		case kernel.BMax:
			for _, p := range s {
				acc[lane[p]] = max(acc[lane[p]], x[p])
			}
		default:
			for _, p := range s {
				v, err := slow(op, acc[lane[p]], x[p])
				if err != nil {
					return err
				}
				acc[lane[p]] = v
			}
		}
		return nil
	}
	x = x[:b.n]
	lanes := b.lanes
	for l := 0; l < lanes && l < len(x); l++ {
		a := acc[l]
		switch op {
		case kernel.BAdd:
			for p := l; p < len(x); p += lanes {
				a += x[p]
			}
		case kernel.BMin:
			for p := l; p < len(x); p += lanes {
				a = min(a, x[p])
			}
		case kernel.BMax:
			for p := l; p < len(x); p += lanes {
				a = max(a, x[p])
			}
		default:
			for p := l; p < len(x); p += lanes {
				v, err := slow(op, a, x[p])
				if err != nil {
					return err
				}
				a = v
			}
		}
		acc[l] = a
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
// column of the per-batch slab loc (slot s of lane l at s*lanes+l), whichever
// iteration of the tile the pseudo-lane is. The post-loop body reads slot
// RegJ, and its tiles are whole rows of consecutive slots: slab order.
func primLoadLoc[T int64 | float64](regs [][]T, loc []T, b *bstate, in *kernel.Instr) error {
	d, a := regs[in.Dst], b.ri[in.A]
	lanes, size := int64(b.lanes), uint64(b.nloc)
	var lane []int32 // nil in a tile of one row, where the pseudo-lane is the lane
	if b.n > b.lanes {
		lane = b.laneOf()
	}
	if s := b.sel; s != nil {
		for _, i := range s {
			ix, l := a[i], int64(i)
			if uint64(ix) >= size {
				return fmt.Errorf("local load out of bounds: idx %d size %d", ix, size)
			}
			if lane != nil {
				l = int64(lane[i])
			}
			d[i] = loc[ix*lanes+l]
		}
		return nil
	}
	d = d[:b.n]
	if n := len(d); in.A == kernel.RegJ && n > 0 && a[0] >= 0 && uint64(a[n-1]) < size {
		copy(d, loc[a[0]*lanes:])
		return nil
	}
	for i, ix := range a[:len(d)] {
		l := int64(i)
		if uint64(ix) >= size {
			return fmt.Errorf("local load out of bounds: idx %d size %d", ix, size)
		}
		if lane != nil {
			l = int64(lane[i])
		}
		d[i] = loc[ix*lanes+l]
	}
	return nil
}

// primStoreLoc compiles IStoreLoc. A store to the scratch array is always in
// the carried slice, so the pseudo-lanes are the lanes of one iteration.
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
