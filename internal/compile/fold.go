package compile

import (
	"fmt"
	"math"

	"voodoo/internal/core"
	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

// addBuf declares a kernel buffer and returns its index.
func (c *compiler) addBuf(name string, k vector.Kind, size int, valid, input bool) int {
	c.nbuf++
	return c.kern.AddBuf(kernel.BufDecl{
		Name: fmt.Sprintf("%s#%d", name, c.nbuf), Kind: k, Size: size,
		Valid: valid, Input: input,
	})
}

// addFrag appends a fragment both to the kernel (for listings and OpenCL
// generation) and to the plan's step sequence.
func (c *compiler) addFrag(f *kernel.Fragment) {
	c.kern.Frags = append(c.kern.Frags, f)
	c.plan.steps = append(c.plan.steps, &fragStep{f: f})
}

// foldOpBin maps a fold operator to its accumulation ALU op.
func foldOpBin(op core.Op) kernel.BinOp {
	switch op {
	case core.OpFoldMin:
		return kernel.BMin
	case core.OpFoldMax:
		return kernel.BMax
	default:
		return kernel.BAdd
	}
}

// negZero is the identity of a float sum: −0 + x is x for every x, where
// +0 would turn a sum of −0.0 values positive (the interpreter's sum keeps
// the sign of its first value).
var negZero = math.Copysign(0, -1)

// foldIdentity returns the accumulator start value for a fold op: 0 for
// sums (negZero in float), and an absorbing sentinel for min/max so that
// masked-out lanes never win.
func foldIdentity(op core.Op, k vector.Kind) (int64, float64) {
	switch op {
	case core.OpFoldMin:
		if k == vector.Float {
			return 0, math.Inf(1)
		}
		return math.MaxInt64, 0
	case core.OpFoldMax:
		if k == vector.Float {
			return 0, math.Inf(-1)
		}
		return math.MinInt64, 0
	}
	return 0, negZero
}

// foldSpec is one aggregate of a fused multi-aggregate fold fragment. It
// accumulates in val's kind and stores its result as kind.
type foldSpec struct {
	stmt *core.Stmt // nil for an aggregate no statement names
	op   core.Op
	val  attr
	kind vector.Kind
}

// specStmts returns the SSA ids of the fused aggregates, for provenance.
func specStmts(specs []foldSpec) []int {
	ids := make([]int, len(specs))
	for i, sp := range specs {
		ids[i] = int(sp.stmt.ID)
	}
	return ids
}

// siblingFolds collects every aggregation fold over the same input and
// control attribute as s (including s itself), so one fragment computes all
// of them — one scan instead of one per aggregate, as the paper's compiler
// fuses Figure 8's folds.
func (c *compiler) siblingFolds(s *core.Stmt) []*core.Stmt {
	var out []*core.Stmt
	for i := range c.prog.Stmts {
		t := &c.prog.Stmts[i]
		if t.Op.IsFold() && t.Op != core.OpFoldSelect && t.Op != core.OpFoldScan &&
			t.Args[0] == s.Args[0] && t.Kp[0] == s.Kp[0] {
			out = append(out, t)
		}
	}
	return out
}

func (c *compiler) compileFold(s *core.Stmt) *desc {
	if d, ok := c.foldCache[s.ID]; ok {
		return d
	}
	d := c.desc(s.Args[0])
	switch {
	case d.filt != nil:
		return c.fusedFilterFold(s, d)
	case d.gpend != nil:
		return c.groupedFold(s, d)
	case d.layout == layoutScattered:
		return c.scatteredFold(s, d)
	}
	d = c.emitReady(d)
	// Position-sensitive folds (select, scan) and folds with their own
	// run structure need the padded index space; value-only global folds
	// can run directly over the compact form (the suppression hot path).
	if d.layout != layoutDense &&
		(s.Op == core.OpFoldSelect || s.Op == core.OpFoldScan || s.Kp[0] != "") {
		d = c.densify(d)
	}
	ctrl := c.ctrlOf(d, s.Kp[0], d.n)
	if ctrl.unknown {
		return c.bulk(s)
	}
	if ctrl.global {
		ctrl.runLen = d.n
	}
	switch s.Op {
	case core.OpFoldSelect:
		sel, ok := d.single(s.FoldVal)
		if !ok {
			return c.bulk(s)
		}
		pred := selectedPred(sel)
		return &desc{n: d.n, logicalN: d.logical(),
			sel: &selInfo{pred: pred, srcN: d.n, ctrl: ctrl, outName: s.Out[0], stmt: c.cur,
				inPlace: c.foldsThrough(s.ID)}}
	case core.OpFoldScan:
		return c.plainScan(s, d, ctrl)
	default:
		specs := c.specsFor(c.siblingFolds(s), d)
		stride := ctrl.runLen
		if d.layout == layoutFoldCompact {
			stride *= d.runLen
		}
		numRuns := ctrl.numRuns(d.n)
		accs := c.multiFold("fold", kernel.Prov{Kind: "fold", Stmts: specStmts(specs),
			Suppressed: numRuns < d.n}, specs, numRuns, ctrl.runLen, d.n, false)
		c.cacheFoldResults(accs, desc{n: numRuns, layout: layoutFoldCompact,
			logicalN: d.logical(), runLen: stride, countsBuf: -1})
		return c.foldCache[s.ID]
	}
}

// specsFor resolves the value attribute of each sibling fold against view.
func (c *compiler) specsFor(stmts []*core.Stmt, view *desc) []foldSpec {
	var specs []foldSpec
	for _, t := range stmts {
		val, ok := view.single(t.FoldVal)
		if !ok {
			cerrf("%s: no value attribute %q", t.Op, t.FoldVal)
		}
		specs = append(specs, foldSpec{stmt: t, op: t.Op, val: val, kind: val.kind()})
	}
	return specs
}

// selectedPred combines an attribute's value and validity into a single
// 0/1 predicate: selected iff valid and non-zero. A value that already is
// 0/1 — a comparison, an integer AND or OR, a validity probe — is its own
// predicate.
func selectedPred(a attr) expr {
	sel := a.ex
	if !isBool(sel) {
		var zero expr = constI(0)
		if a.kind() == vector.Float {
			zero = constF(0)
		}
		// selected = !(v == 0): (v==0) ? 0 : 1
		sel = &eSel{c: &eBin{op: kernel.BEq, a: a.ex, b: zero}, a: constI(0), b: constI(1)}
	}
	if a.validEx != nil {
		return &eBin{op: kernel.BAnd, a: a.validEx, b: sel}
	}
	return sel
}

// isBool reports whether e evaluates to 0 or 1 on every element.
func isBool(e expr) bool {
	switch x := e.(type) {
	case *eLoadValid:
		return true
	case *eBin:
		switch x.op {
		case kernel.BGt, kernel.BGe, kernel.BEq:
			return true
		case kernel.BAnd, kernel.BOr:
			return x.kind() == vector.Int
		}
	}
	return false
}

// accState is one fused aggregate's register set during emission.
type accState struct {
	spec foldSpec
	kind vector.Kind
	acc  kernel.Reg
	any  kernel.Reg
	need bool // validity tracking needed
	iI   int64
	iF   float64
	bop  kernel.BinOp
	out  int // output buffer, of kind spec.kind
}

// prepareAccs allocates accumulators and output buffers, named name, for a
// fused fold.
func (c *compiler) prepareAccs(em *emitter, f *kernel.Fragment, name string, specs []foldSpec, slots int) []*accState {
	var accs []*accState
	for _, sp := range specs {
		st := &accState{spec: sp, kind: sp.val.kind(), bop: foldOpBin(sp.op)}
		st.iI, st.iF = foldIdentity(sp.op, st.kind)
		st.need = sp.val.validEx != nil || sp.op == core.OpFoldMin || sp.op == core.OpFoldMax
		st.acc = em.alloc()
		st.any = em.alloc()
		st.out = c.addBuf(name, sp.kind, slots, true, false)
		f.Pre = append(f.Pre, kernel.Instr{Op: kernel.IConstI, Dst: st.any, Imm: 0})
		if st.kind == vector.Float {
			f.Pre = append(f.Pre, kernel.Instr{Op: kernel.IConstF, Dst: st.acc, FImm: st.iF})
		} else {
			f.Pre = append(f.Pre, kernel.Instr{Op: kernel.IConstI, Dst: st.acc, Imm: st.iI})
		}
		accs = append(accs, st)
	}
	return accs
}

// emitAccumulate appends one aggregate's accumulation to the body.
func (em *emitter) emitAccumulate(st *accState) {
	ex := st.spec.val.ex
	if st.spec.val.validEx != nil {
		var ident expr = constI(st.iI)
		if st.kind == vector.Float {
			ident = constF(st.iF)
		}
		ex = &eSel{c: st.spec.val.validEx, a: st.spec.val.ex, b: ident}
	}
	v := em.emitAs(ex, st.kind)
	em.push(kernel.Instr{Op: kernel.IBin, BOp: st.bop, Dst: st.acc, A: st.acc, B: v,
		Float: st.kind == vector.Float})
	if st.need {
		var one kernel.Reg
		if st.spec.val.validEx != nil {
			one = em.emit(st.spec.val.validEx)
		} else {
			one = em.emit(constI(1))
		}
		em.push(kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: st.any, A: st.any, B: one})
	}
}

// flushAccs stores each accumulator at out[gid] with its validity, cast to
// the result's kind where the accumulation ran in float.
func (em *emitter) flushAccs(f *kernel.Fragment, accs []*accState) {
	for _, st := range accs {
		v := st.acc
		if st.kind != st.spec.kind {
			v = em.alloc()
			f.Post = append(f.Post, kernel.Instr{Op: kernel.ICastFI, Dst: v, A: st.acc})
		}
		store := kernel.Instr{Op: kernel.IStore, Buf: st.out, A: kernel.RegGID, B: v,
			Float: st.spec.kind == vector.Float, Seq: true}
		if st.need {
			store.C = st.any
		}
		f.Post = append(f.Post, store)
	}
}

// outAttr reads the aggregate's output buffer, with its validity when the
// fold tracks one.
func (st *accState) outAttr() attr {
	a := attr{ex: &eLoad{buf: st.out, k: st.spec.kind, idx: theIdx}}
	if st.need {
		a.validEx = &eLoadValid{buf: st.out, idx: theIdx}
	}
	return a
}

// cacheFoldResults registers each named aggregate's output, in the layout
// like describes.
func (c *compiler) cacheFoldResults(accs []*accState, like desc) {
	for _, st := range accs {
		if st.spec.stmt == nil {
			continue
		}
		out := like
		a := st.outAttr()
		a.name = st.spec.stmt.Out[0]
		out.attrs = []attr{a}
		c.foldCache[st.spec.stmt.ID] = &out
	}
}

// multiFold emits one fragment computing every aggregate of specs: blocked
// (or strided) runs, one accumulator set per aggregate, one output slot per
// work item (empty-slot suppression, §3.1.2). It is the one fold emitter:
// a fold's first level and the second level over its partials (reduce_*,
// greduce_*) are calls to it that differ in name, provenance, geometry and
// the view of their input.
func (c *compiler) multiFold(prefix string, prov kernel.Prov, specs []foldSpec,
	extent, intent, n int, strided bool) []*accState {

	f := &kernel.Fragment{
		Name:   fmt.Sprintf("%s_%d", prefix, specs[0].stmt.ID),
		Extent: extent, Intent: intent, N: n, Strided: strided, Prov: prov,
	}
	var body []kernel.Instr
	em := newEmitter(&body)
	accs := c.prepareAccs(em, f, prefix, specs, extent)
	for _, st := range accs {
		em.emitAccumulate(st)
	}
	f.Loops = []kernel.Loop{{Body: body}}
	em.flushAccs(f, accs)
	c.addFrag(f)
	return accs
}

// plainScan lowers FoldScan: a running sum per run, one output per element.
func (c *compiler) plainScan(s *core.Stmt, d *desc, ctrl foldCtrl) *desc {
	val, ok := d.single(s.FoldVal)
	if !ok {
		cerrf("%s: no value attribute %q", s.Op, s.FoldVal)
	}
	kind := val.kind()
	numRuns := ctrl.numRuns(d.n)
	outBuf := c.addBuf("scan", kind, d.n, val.validEx != nil, false)
	f := &kernel.Fragment{
		Name:   fmt.Sprintf("scan_%d", s.ID),
		Extent: numRuns, Intent: ctrl.runLen, N: d.n,
		Prov: kernel.Prov{Kind: "scan", Stmts: []int{int(s.ID)}},
	}
	var body []kernel.Instr
	em := newEmitter(&body)
	acc := em.alloc()
	if kind == vector.Float {
		f.Pre = []kernel.Instr{{Op: kernel.IConstF, Dst: acc, FImm: 0}}
	} else {
		f.Pre = []kernel.Instr{{Op: kernel.IConstI, Dst: acc, Imm: 0}}
	}
	ex := val.ex
	var validR kernel.Reg = kernel.NoReg
	if val.validEx != nil {
		var zero expr = constI(0)
		if kind == vector.Float {
			zero = constF(0)
		}
		ex = &eSel{c: val.validEx, a: val.ex, b: zero}
		validR = em.emit(val.validEx)
	}
	v := em.emitAs(ex, kind)
	em.push(kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: acc, A: acc, B: v, Float: kind == vector.Float})
	store := kernel.Instr{Op: kernel.IStore, Buf: outBuf, A: kernel.RegIdx, B: acc,
		Float: kind == vector.Float, Seq: true}
	if validR != kernel.NoReg {
		store.C = validR
	}
	em.push(store)
	f.Loops = []kernel.Loop{{Body: body}}
	c.addFrag(f)

	out := &desc{n: d.n, layout: d.layout, logicalN: d.logicalN, runLen: d.runLen, countsBuf: -1}
	a := attr{name: s.Out[0], ex: &eLoad{buf: outBuf, k: kind, idx: theIdx}}
	if val.validEx != nil {
		a.validEx = &eLoadValid{buf: outBuf, idx: theIdx}
	}
	out.attrs = []attr{a}
	return out
}

// scatteredFold lowers folds over a virtually scattered vector: work item =
// lane, iterations stride through the source (paper Figure 4's SIMD
// pattern). The fold control must be the partition attribute.
func (c *compiler) scatteredFold(s *core.Stmt, d *desc) *desc {
	if s.Kp[0] == "" || s.Kp[0] != d.partAttr ||
		s.Op == core.OpFoldSelect || s.Op == core.OpFoldScan {
		return c.compileFoldOn(s, c.plainify(d))
	}
	srcView := &desc{n: d.logicalN, attrs: d.attrs}
	specs := c.specsFor(c.siblingFolds(s), srcView)
	accs := c.multiFold("fold", kernel.Prov{Kind: "fold", Stmts: specStmts(specs),
		Suppressed: d.lanes < d.logicalN, Virtual: true}, specs, d.lanes, d.runLen, d.logicalN, true)
	c.cacheFoldResults(accs, desc{n: d.lanes, layout: layoutFoldCompact,
		logicalN: d.logicalN, runLen: d.runLen, countsBuf: -1})
	return c.foldCache[s.ID]
}

// compileFoldOn re-runs fold compilation against a replacement descriptor.
func (c *compiler) compileFoldOn(s *core.Stmt, d *desc) *desc {
	saved := c.descs[s.Args[0]]
	c.descs[s.Args[0]] = d
	out := c.compileFold(s)
	c.descs[s.Args[0]] = saved
	return out
}

// fusedFilterFold fuses FoldSelect → Gather → folds into a single fragment
// (paper Figures 8/9): each work item scans its run, selects qualifying
// positions, and aggregates the gathered values — with either a
// data-dependent branch (IGuard) or cursor arithmetic (predication). A
// second fragment reduces the per-run partials.
func (c *compiler) fusedFilterFold(s *core.Stmt, d *desc) *desc {
	if s.Op == core.OpFoldSelect || s.Op == core.OpFoldScan || s.Kp[0] != "" {
		return c.compileFoldOn(s, c.plainify(d))
	}
	fi := d.filt
	srcN := fi.sel.srcN
	ctrl := fi.sel.ctrl
	if ctrl.global {
		ctrl.runLen = srcN
	}
	numRuns := ctrl.numRuns(srcN)

	view := &desc{n: srcN, attrs: fi.attrs}
	specs := c.specsFor(c.siblingFolds(s), view)

	f := &kernel.Fragment{
		Name:   fmt.Sprintf("ffold_%d", s.ID),
		Extent: numRuns, Intent: ctrl.runLen, N: srcN,
		Prov: kernel.Prov{Kind: "filter-fold",
			Stmts:      append([]int{fi.sel.stmt, fi.stmt}, specStmts(specs)...),
			Suppressed: true, Predicated: c.opt.Predication},
	}
	var loop1 []kernel.Instr
	em := newEmitter(&loop1)
	accs := c.prepareAccs(em, f, "fold", specs, numRuns)
	cursor := em.alloc()
	f.Pre = append(f.Pre, kernel.Instr{Op: kernel.IConstI, Dst: cursor, Imm: 0})

	var loop2 []kernel.Instr
	var cursorBound kernel.Reg = kernel.NoReg
	if !c.opt.Predication {
		// Branching: guard on the predicate, then gather and fold the
		// qualifying element directly — no position list exists at all.
		pred := em.emit(fi.sel.pred)
		em.push(kernel.Instr{Op: kernel.IGuard, A: pred})
		em.memo[expr(thePos)] = kernel.RegIdx
		for _, st := range accs {
			em.emitAccumulate(st)
		}
	} else {
		// Predication: loop 1 unconditionally writes each position into
		// the run-local buffer and advances the cursor by the predicate
		// (Ross-style cursor arithmetic); loop 2 walks only the cursor
		// prefix, gathering and folding. The local buffer is the
		// intermediate whose size the control vector tunes — run length
		// = cache-sized chunks gives the paper's "vectorized" variant.
		f.Locals = ctrl.runLen
		pred := em.emit(fi.sel.pred)
		em.push(kernel.Instr{Op: kernel.IStoreLoc, A: cursor, B: kernel.RegIdx})
		em.push(kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: cursor, A: cursor, B: pred})

		em.to(&loop2)
		em.invalidateIdx()
		pos := em.alloc()
		em.push(kernel.Instr{Op: kernel.ILoadLoc, Dst: pos, A: kernel.RegIV})
		em.memo[expr(thePos)] = pos
		for _, st := range accs {
			em.emitAccumulate(st)
		}
		cursorBound = cursor
	}
	// Per-run partials carry validity: runs that selected nothing stay ε.
	// Aggregates whose inputs carry their own validity keep their exact
	// counts; the rest share the selected-row count.
	var selCount kernel.Reg
	if c.opt.Predication {
		selCount = cursor // the cursor is the selected count
	} else {
		selCount = em.alloc()
		f.Pre = append(f.Pre, kernel.Instr{Op: kernel.IConstI, Dst: selCount, Imm: 0})
		one := em.emit(constI(1))
		em.push(kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: selCount, A: selCount, B: one})
	}
	for _, st := range accs {
		if !st.need {
			st.need = true
			st.any = selCount
		}
	}
	// Assign loop bodies only now: earlier assignment would capture stale
	// slice headers while emission still appends.
	if cursorBound == kernel.NoReg {
		f.Loops = []kernel.Loop{{Body: loop1}}
	} else {
		f.Loops = []kernel.Loop{
			{Body: loop1},
			{BoundReg: cursorBound, Body: loop2},
		}
	}
	em.flushAccs(f, accs)
	c.addFrag(f)

	// The paper's Fragment 2 in Figure 8: one sequential fold over every
	// aggregate's per-run partials.
	if numRuns > 1 {
		rspecs := make([]foldSpec, len(accs))
		for i, st := range accs {
			rspecs[i] = foldSpec{stmt: st.spec.stmt, op: st.spec.op, kind: st.spec.kind,
				val: st.outAttr()}
		}
		accs = c.multiFold("reduce", kernel.Prov{Kind: "reduce", Stmts: specStmts(rspecs),
			Suppressed: true}, rspecs, 1, numRuns, numRuns, false)
	}
	c.cacheFoldResults(accs, desc{n: 1, layout: layoutFoldCompact,
		logicalN: srcN, runLen: srcN, countsBuf: -1})
	return c.foldCache[s.ID]
}

// groupedFold lowers folds over a virtual scatter with data-controlled
// partitions — the paper's Figure 11 grouped aggregation. Work items keep a
// private accumulator (and count) per partition and aggregate; a second
// fragment reduces the partials.
func (c *compiler) groupedFold(s *core.Stmt, d *desc) *desc {
	gp := d.gpend
	if s.Op == core.OpFoldSelect || s.Op == core.OpFoldScan {
		return c.compileFoldOn(s, c.plainify(d))
	}
	// An empty fold keypath means one global run, never the per-partition
	// run structure — without this guard, a source with a single attribute
	// that happens to be the partition control would be mistaken for a
	// partition-keyed grouped aggregation.
	ctrlAttr, ok := gp.src.single(s.Kp[0])
	if s.Kp[0] == "" || !ok || ctrlAttr.ex != gp.part.valEx {
		return c.compileFoldOn(s, c.plainify(d))
	}
	specs := c.specsFor(c.siblingFolds(s), gp.src)
	k := gp.part.k
	srcN := gp.part.srcN
	nA := len(specs)

	// Locals are float if any aggregate is (counts stay exact ≤ 2^53).
	anyFloat := false
	for _, sp := range specs {
		if sp.val.kind() == vector.Float {
			anyFloat = true
		}
	}
	lkind := vector.Int
	if anyFloat {
		lkind = vector.Float
	}

	P := min(groupExtent, max(1, srcN/max(k, 1)))
	if P < 1 {
		P = 1
	}
	// Per work item: k sums for each aggregate; k counts for each distinct
	// input validity (aggregates whose inputs are ε alike count alike); then
	// k raw occupancy slots counting every scattered row (including ε rows,
	// which the interpreter places in the zero-valued partition) so the
	// padded layout expands exactly as the interpreter's. The accumulators
	// see only rows whose group id is valid (the guard below), so an input
	// valid exactly where the group id is counts as having no ε.
	valid := make([]expr, nA)
	cntOf := map[expr]int{} // input validity (nil: none) → its block of counts
	for ai, sp := range specs {
		if sp.val.validEx != ctrlAttr.validEx {
			valid[ai] = sp.val.validEx
		}
		if _, ok := cntOf[valid[ai]]; !ok {
			cntOf[valid[ai]] = nA + len(cntOf)
		}
	}
	occOff := k * (nA + len(cntOf))
	width := occOff + k
	partials := c.addBuf("gpart", lkind, P*width, false, false)
	f := &kernel.Fragment{
		Name:   fmt.Sprintf("gfold_%d", s.ID),
		Extent: P, Intent: (srcN + P - 1) / P, N: srcN,
		Locals: width, LocalsFloat: anyFloat, LocalsInit: negZero, // a float sum's identity
		Prov: kernel.Prov{Kind: "group-fold",
			Stmts:   append([]int{gp.part.stmt, gp.stmt}, specStmts(specs)...),
			Virtual: true},
	}
	var body []kernel.Instr
	em := newEmitter(&body)
	// Every table update below is t = loc[i]; u = op(t, x); loc[i] = u with
	// i and x computed from the row alone: a scratch reduction, which the
	// batch tier runs a tile at a time (verify.LoopFacts.Chains).
	load := func(i kernel.Reg) kernel.Reg {
		t := em.alloc()
		em.push(kernel.Instr{Op: kernel.ILoadLoc, Dst: t, A: i, Float: anyFloat})
		return t
	}
	update := func(bop kernel.BinOp, t, x kernel.Reg) kernel.Reg {
		u := em.alloc()
		em.push(kernel.Instr{Op: kernel.IBin, BOp: bop, Dst: u, A: t, B: x, Float: anyFloat})
		return u
	}
	store := func(i, u kernel.Reg) {
		em.push(kernel.Instr{Op: kernel.IStoreLoc, A: i, B: u, Float: anyFloat})
	}
	slotOf := func(g expr, off int) kernel.Reg { return em.emit(binExpr(kernel.BAdd, g, constI(int64(off)))) }
	var one expr = constI(1)
	if anyFloat {
		one = constF(1)
	}
	// Raw occupancy first (before any guard): ε rows read group zero, as
	// the interpreter's Partition does.
	g0ex := gp.part.valEx
	if ctrlAttr.validEx != nil {
		g0ex = &eSel{c: ctrlAttr.validEx, a: gp.part.valEx, b: constI(0)}
	}
	occIdx := slotOf(g0ex, occOff)
	store(occIdx, update(kernel.BAdd, load(occIdx), em.emit(one)))
	// Rows whose group id is ε (padding from an upstream selection, or a
	// missed join) belong to no group: skip them before touching the
	// aggregate accumulators.
	if ctrlAttr.validEx != nil {
		gv := em.emit(ctrlAttr.validEx)
		em.push(kernel.Instr{Op: kernel.IGuard, A: gv})
	}

	counted := map[expr]kernel.Reg{} // input validity → its count before this row
	for ai, sp := range specs {
		cnt, ok := counted[valid[ai]]
		if !ok {
			inc := em.emit(one)
			if valid[ai] != nil {
				inc = em.emitAs(valid[ai], lkind)
			}
			cntIdx := slotOf(gp.part.valEx, k*cntOf[valid[ai]])
			cnt = load(cntIdx)
			store(cntIdx, update(kernel.BAdd, cnt, inc))
			counted[valid[ai]] = cnt
		}

		ex := sp.val.ex
		if valid[ai] != nil {
			iI, iF := foldIdentity(sp.op, lkind)
			var ident expr = constI(iI)
			if lkind == vector.Float {
				ident = constF(iF)
			}
			ex = &eSel{c: valid[ai], a: sp.val.ex, b: ident}
		}
		v := em.emitAs(ex, lkind)
		slot := slotOf(gp.part.valEx, k*ai)
		merged := update(foldOpBin(sp.op), load(slot), v)
		// A min or max takes the first value a slot sees rather than fold
		// it into the slot's initial 0 — except a max of the partition id
		// itself: ids lie in [0, k), so max(0, id) is the id.
		if sp.op != core.OpFoldSum && !(sp.op == core.OpFoldMax && sp.val.ex == gp.part.valEx) {
			cntI := cnt
			if anyFloat {
				cntI = em.alloc()
				em.push(kernel.Instr{Op: kernel.ICastFI, Dst: cntI, A: cnt})
			}
			em.push(kernel.Instr{Op: kernel.ISel, Dst: merged, A: cntI, B: merged, C: v, Float: anyFloat})
		}
		store(slot, merged)
	}
	f.Loops = []kernel.Loop{{Body: body}}

	// Post-loop: partials[gid*width + j] = loc[j].
	var post []kernel.Instr
	pe := newEmitter(&post)
	wReg := pe.emit(constI(int64(width)))
	slot := pe.alloc()
	pe.push(kernel.Instr{Op: kernel.IBin, BOp: kernel.BMul, Dst: slot, A: kernel.RegGID, B: wReg})
	pe.push(kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: slot, A: slot, B: kernel.RegJ})
	lv := pe.alloc()
	pe.push(kernel.Instr{Op: kernel.ILoadLoc, Dst: lv, A: kernel.RegJ, Float: anyFloat})
	pe.push(kernel.Instr{Op: kernel.IStore, Buf: partials, A: slot, B: lv, Float: anyFloat, Seq: true})
	f.PostLoopBody = post
	c.addFrag(f)

	// Reduction (the controlled fold of Figure 11): an ordinary fold over
	// the partials, one work item per group, iteration iv reading work item
	// iv's table in the table's kind. A partial is valid where its count is
	// non-zero, so an empty one folds the identity; integer results are cast
	// at the flush. The occupancy is one more sum, with no validity: the
	// group-compact layout's counts.
	row := binExpr(kernel.BMul, &eIV{}, constI(int64(width)))
	partial := func(off int) expr {
		return &eLoad{buf: partials, k: lkind, seq: true,
			idx: binExpr(kernel.BAdd, binExpr(kernel.BAdd, row, constI(int64(off))), &eGID{})}
	}
	count := map[int]expr{} // count block → its count as an integer
	for _, cb := range cntOf {
		count[cb] = partial(k * cb)
		if anyFloat {
			count[cb] = &eCast{a: count[cb]}
		}
	}
	rspecs := make([]foldSpec, 0, nA+1)
	for ai, sp := range specs {
		rspecs = append(rspecs, foldSpec{stmt: sp.stmt, op: sp.op, kind: sp.kind,
			val: attr{ex: partial(k * ai), validEx: count[cntOf[valid[ai]]]}})
	}
	rspecs = append(rspecs, foldSpec{op: core.OpFoldSum, kind: vector.Int,
		val: attr{ex: partial(occOff)}})
	accs := c.multiFold("greduce", kernel.Prov{Kind: "group-reduce", Stmts: specStmts(specs),
		Virtual: true}, rspecs, k, P, 0, false)
	c.cacheFoldResults(accs, desc{n: k, layout: layoutGroupCompact,
		logicalN: gp.n, countsBuf: accs[nA].out})
	return c.foldCache[s.ID]
}
