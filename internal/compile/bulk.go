package compile

import (
	"context"
	"fmt"
	"sort"

	"voodoo/internal/core"
	"voodoo/internal/exec"
	"voodoo/internal/interp"
	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

// eOpaque is a schema placeholder for attributes of special (pending)
// descriptors; it can never be emitted — plainify resolves the special form
// before any emission.
type eOpaque struct{ k vector.Kind }

func (e *eOpaque) kind() vector.Kind { return e.k }

// emittable reports whether an expression tree contains only nodes the
// fragment emitter can lower.
func emittable(e expr) bool {
	switch x := e.(type) {
	case *ePartRef, *eOpaque, *ePos:
		return false
	case *eBin:
		return emittable(x.a) && emittable(x.b)
	case *eSel:
		return emittable(x.c) && emittable(x.a) && emittable(x.b)
	case *eCast:
		return emittable(x.a)
	case *eLoad:
		return emittable(x.idx)
	case *eLoadValid:
		return emittable(x.idx)
	}
	return true
}

// plainify resolves pending special forms (unmaterialized selects, filtered
// gathers, virtual scatters) into ordinary expression-backed descriptors,
// emitting spill fragments or bulk steps as needed.
func (c *compiler) plainify(d *desc) *desc {
	if d.plainCache != nil {
		return d.plainCache
	}
	out := d
	switch {
	case d.sel != nil:
		out = c.spillSel(d.sel)
	case d.filt != nil:
		out = c.spillFilt(d.filt)
	case d.gpend != nil:
		out = c.materializeGrouped(d.gpend)
	case d.layout == layoutScattered:
		out = c.materializeScattered(d)
	}
	d.plainCache = out
	return out
}

// emitReady plainifies d and replaces any remaining non-emittable attribute
// (Partition provenance markers) with loads from spilled buffers.
func (c *compiler) emitReady(d *desc) *desc {
	d = c.plainify(d)
	dirty := false
	for _, a := range d.attrs {
		if !emittable(a.ex) || (a.validEx != nil && !emittable(a.validEx)) {
			dirty = true
			break
		}
	}
	if !dirty {
		return d
	}
	out := &desc{n: d.n, layout: d.layout, logicalN: d.logicalN,
		runLen: d.runLen, countsBuf: d.countsBuf}
	for _, a := range d.attrs {
		na := attr{name: a.name, ex: c.substSpecial(a.ex), validEx: a.validEx}
		if na.validEx != nil {
			na.validEx = c.substSpecial(na.validEx)
		}
		out.attrs = append(out.attrs, na)
	}
	return out
}

// substSpecial rewrites ePartRef leaves to loads from the spilled partition
// position buffer.
func (c *compiler) substSpecial(e expr) expr {
	switch x := e.(type) {
	case *ePartRef:
		buf := c.spillPartition(x.info)
		return &eLoad{buf: buf, k: vector.Int, idx: theIdx}
	case *eOpaque, *ePos:
		cerrf("internal: unexpected %T outside its pipeline", e)
	case *eBin:
		return &eBin{op: x.op, a: c.substSpecial(x.a), b: c.substSpecial(x.b)}
	case *eSel:
		return &eSel{c: c.substSpecial(x.c), a: c.substSpecial(x.a), b: c.substSpecial(x.b)}
	case *eCast:
		return &eCast{toF: x.toF, a: c.substSpecial(x.a)}
	case *eLoad:
		return &eLoad{buf: x.buf, k: x.k, idx: c.substSpecial(x.idx)}
	case *eLoadValid:
		return &eLoadValid{buf: x.buf, idx: c.substSpecial(x.idx)}
	}
	return e
}

// bufferize materializes every attribute of d into a buffer, emitting one
// fragment that evaluates all attribute expressions (sharing subexpressions)
// unless the attributes already are direct buffer loads.
func (c *compiler) bufferize(d *desc) *desc {
	return c.bufferizeWithCtrl(d, foldCtrl{unknown: true})
}

func (c *compiler) bufferizeWithCtrl(d *desc, ctrl foldCtrl) *desc {
	d = c.emitReady(d)
	direct := true
	for _, a := range d.attrs {
		ld, ok := a.ex.(*eLoad)
		if !ok || ld.idx != expr(theIdx) || c.kern.Bufs[ld.buf].Size != d.n {
			direct = false
			break
		}
		if a.validEx != nil {
			lv, ok := a.validEx.(*eLoadValid)
			same, shared := c.sameMask[ld.buf]
			if !ok || (lv.buf != ld.buf && !(shared && same == lv.buf)) || lv.idx != expr(theIdx) {
				direct = false
				break
			}
		}
	}
	if direct {
		return d
	}

	extent := min(defaultExtent, max(1, d.n))
	if !ctrl.unknown {
		extent = ctrl.numRuns(d.n)
	}
	f := &kernel.Fragment{
		Name:   fmt.Sprintf("mat_%d", len(c.kern.Frags)),
		Extent: extent, Intent: (d.n + extent - 1) / extent, N: d.n,
		Prov: kernel.Prov{Kind: "mat", Stmts: []int{c.cur}},
	}
	var body []kernel.Instr
	em := newEmitter(&body)
	out := &desc{n: d.n, layout: d.layout, logicalN: d.logicalN,
		runLen: d.runLen, countsBuf: d.countsBuf}
	for _, a := range d.attrs {
		hasValid := a.validEx != nil
		buf := c.addBuf("mat."+a.name, a.kind(), d.n, hasValid, false)
		v := em.emit(a.ex)
		st := kernel.Instr{Op: kernel.IStore, Buf: buf, A: kernel.RegIdx, B: v,
			Float: a.kind() == vector.Float, Seq: true}
		na := attr{name: a.name, ex: &eLoad{buf: buf, k: a.kind(), idx: theIdx}}
		if hasValid {
			st.C = em.emit(a.validEx)
			na.validEx = &eLoadValid{buf: buf, idx: theIdx}
		}
		em.push(st)
		out.attrs = append(out.attrs, na)
	}
	f.Loops = []kernel.Loop{{Body: body}}
	c.addFrag(f)
	return out
}

// spillSel materializes a pending FoldSelect into a padded positions buffer
// (positions aligned to run starts, ε beyond each run's count), honoring the
// predication option.
func (c *compiler) spillSel(si *selInfo) *desc {
	ctrl := si.ctrl
	if ctrl.global {
		ctrl.runLen = si.srcN
	}
	numRuns := ctrl.numRuns(si.srcN)
	posBuf := c.addBuf("selpos", vector.Int, si.srcN, true, false)
	out := &desc{n: si.srcN, attrs: []attr{{
		name:    si.outName,
		ex:      &eLoad{buf: posBuf, k: vector.Int, idx: theIdx},
		validEx: &eLoadValid{buf: posBuf, idx: theIdx},
	}}}
	if c.pruneEmpty(si.pred) {
		// Zone maps prove the predicate never passes: the positions buffer
		// stays zeroed with all-false validity — bit-identical to running
		// the selection — and the fragment is never emitted.
		c.plan.steps = append(c.plan.steps, &prunedStep{
			name: fmt.Sprintf("sel_%d", len(c.kern.Frags)), stmts: []int{si.stmt},
			outBufs: []int{posBuf}})
		return out
	}
	f := &kernel.Fragment{
		Name:   fmt.Sprintf("sel_%d", len(c.kern.Frags)),
		Extent: numRuns, Intent: ctrl.runLen, N: si.srcN,
		Prov: kernel.Prov{Kind: "select", Stmts: []int{si.stmt},
			Predicated: c.opt.Predication},
	}
	var body []kernel.Instr
	em := newEmitter(&body)
	cursor := em.alloc()
	f.Pre = []kernel.Instr{{Op: kernel.IConstI, Dst: cursor, Imm: 0}}
	pred := em.emit(si.pred)
	base := em.emit(binExpr(kernel.BMul, &eGID{}, constI(int64(ctrl.runLen))))
	addr := em.alloc()
	em.push(kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: addr, A: base, B: cursor})
	if c.opt.Predication {
		// Unconditional write; validity = predicate; cursor advances by
		// the predicate. Slots beyond the final cursor end up invalid.
		em.push(kernel.Instr{Op: kernel.IStore, Buf: posBuf, A: addr, B: kernel.RegIdx, C: pred})
		em.push(kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: cursor, A: cursor, B: pred})
	} else {
		em.push(kernel.Instr{Op: kernel.IGuard, A: pred})
		em.push(kernel.Instr{Op: kernel.IStore, Buf: posBuf, A: addr, B: kernel.RegIdx})
		one := em.emit(constI(1))
		em.push(kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: cursor, A: cursor, B: one})
	}
	f.Loops = []kernel.Loop{{Body: body}}
	c.addFrag(f)
	return out
}

// spillFilt materializes a gather-through-select: the paper's Figure 1
// selection, writing the selected values themselves (branching or
// predicated).
func (c *compiler) spillFilt(fi *filtInfo) *desc {
	ctrl := fi.sel.ctrl
	if ctrl.global {
		ctrl.runLen = fi.sel.srcN
	}
	numRuns := ctrl.numRuns(fi.sel.srcN)
	if c.pruneEmpty(fi.sel.pred) {
		// Zone maps prove the selection never passes: every filtered
		// column arrives zeroed and all-invalid, exactly as the fragment
		// would leave it, so only the plan-time step record remains.
		out := &desc{n: fi.sel.srcN}
		var outBufs []int
		for _, a := range fi.attrs {
			buf := c.addBuf("filt."+a.name, a.kind(), fi.sel.srcN, true, false)
			outBufs = append(outBufs, buf)
			out.attrs = append(out.attrs, attr{name: a.name,
				ex:      &eLoad{buf: buf, k: a.kind(), idx: theIdx},
				validEx: &eLoadValid{buf: buf, idx: theIdx}})
		}
		c.plan.steps = append(c.plan.steps, &prunedStep{
			name: fmt.Sprintf("filt_%d", len(c.kern.Frags)), stmts: []int{fi.sel.stmt, fi.stmt},
			outBufs: outBufs})
		return out
	}
	f := &kernel.Fragment{
		Name:   fmt.Sprintf("filt_%d", len(c.kern.Frags)),
		Extent: numRuns, Intent: ctrl.runLen, N: fi.sel.srcN,
		Prov: kernel.Prov{Kind: "filter", Stmts: []int{fi.sel.stmt, fi.stmt},
			Predicated: c.opt.Predication},
	}
	var body []kernel.Instr
	em := newEmitter(&body)
	cursor := em.alloc()
	f.Pre = []kernel.Instr{{Op: kernel.IConstI, Dst: cursor, Imm: 0}}
	pred := em.emit(fi.sel.pred)
	base := em.emit(binExpr(kernel.BMul, &eGID{}, constI(int64(ctrl.runLen))))
	addr := em.alloc()
	em.push(kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: addr, A: base, B: cursor})
	out := &desc{n: fi.sel.srcN}
	if !c.opt.Predication {
		em.push(kernel.Instr{Op: kernel.IGuard, A: pred})
	}
	em.memo[expr(thePos)] = kernel.RegIdx
	// A column with no ε of its own is valid exactly in the slots the
	// selection writes, whichever column it is: all such columns share the
	// validity of the first, so consumers test it once.
	var written *eLoadValid
	for _, a := range fi.attrs {
		buf := c.addBuf("filt."+a.name, a.kind(), fi.sel.srcN, true, false)
		valid := &eLoadValid{buf: buf, idx: theIdx}
		if a.validEx == nil {
			if written == nil {
				written = valid
			}
			valid = written
			c.sameMask[buf] = written.buf
		}
		v := em.emitAs(a.ex, a.kind())
		st := kernel.Instr{Op: kernel.IStore, Buf: buf, A: addr, B: v,
			Float: a.kind() == vector.Float}
		if c.opt.Predication {
			cond := pred
			if a.validEx != nil {
				av := em.emit(a.validEx)
				both := em.alloc()
				em.push(kernel.Instr{Op: kernel.IBin, BOp: kernel.BAnd, Dst: both, A: pred, B: av})
				cond = both
			}
			st.C = cond
		} else if a.validEx != nil {
			st.C = em.emit(a.validEx)
		}
		em.push(st)
		out.attrs = append(out.attrs, attr{name: a.name,
			ex: &eLoad{buf: buf, k: a.kind(), idx: theIdx}, validEx: valid})
	}
	if c.opt.Predication {
		em.push(kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: cursor, A: cursor, B: pred})
	} else {
		one := em.emit(constI(1))
		em.push(kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: cursor, A: cursor, B: one})
	}
	f.Loops = []kernel.Loop{{Body: body}}
	c.addFrag(f)
	return out
}

// spillPartition computes a Partition's stable counting-sort positions as a
// bulk step and returns the buffer holding them. The result is cached on
// the partInfo so multiple consumers share one sort.
func (c *compiler) spillPartition(pi *partInfo) int {
	if pi.spilled {
		return pi.buf
	}
	vals := c.bufferize(&desc{n: pi.srcN, attrs: []attr{{name: "v", ex: pi.valEx}}})
	valsConv := c.converter(vals)
	pivConv := pi.pivots
	posBuf := c.addBuf("part", vector.Int, pi.srcN, false, true)
	c.plan.steps = append(c.plan.steps, &bulkStep{
		name:    "partition",
		stmts:   []int{pi.stmt},
		inputs:  []converter{valsConv, pivConv},
		outBufs: []int{posBuf},
		attrs:   []string{"pos"},
		evalFn: func(args []*vector.Vector, ar *vector.Arena) (*vector.Vector, error) {
			return countingSortPositions(args[0].SingleCol(), args[1].SingleCol(), ar)
		},
		statsFn: func(args []*vector.Vector, out *vector.Vector) exec.FragStats {
			n := int64(args[0].Len())
			return exec.FragStats{Name: "partition", Extent: 1, Intent: args[0].Len(),
				Sequential: true, Items: 2 * n, IntOps: 4 * n, SeqBytes: 4 * 8 * n,
				StoreBytes: 8 * n}
		},
	})
	pi.spilled, pi.buf = true, posBuf
	return posBuf
}

// countingSortPositions implements Partition's semantics: stable positions
// that group values by "number of pivots strictly below".
func countingSortPositions(vals, pivots *vector.Column, ar *vector.Arena) (*vector.Vector, error) {
	k := pivots.Len()
	pv := make([]int64, k)
	for i := range pv {
		pv[i] = pivots.Int(i)
	}
	if !sort.SliceIsSorted(pv, func(i, j int) bool { return pv[i] < pv[j] }) {
		return nil, fmt.Errorf("partition: pivot list must be sorted")
	}
	n := vals.Len()
	pid := make([]int, n)
	counts := make([]int, k+1)
	for i := 0; i < n; i++ {
		x := vals.Int(i)
		p := sort.Search(k, func(j int) bool { return pv[j] >= x })
		pid[i] = p
		counts[p]++
	}
	starts := make([]int, k+1)
	sum := 0
	for p, cnt := range counts {
		starts[p] = sum
		sum += cnt
	}
	out := ar.Ints(n)
	for i := 0; i < n; i++ {
		out[i] = int64(starts[pid[i]])
		starts[pid[i]]++
	}
	return vector.New(n).Set("pos", vector.NewInt(out)), nil
}

// materializeGrouped turns a pending data-grouped virtual scatter into a
// real scattered vector: spill the partition positions, then scatter the
// source attributes through them.
func (c *compiler) materializeGrouped(gp *groupPending) *desc {
	posBuf := c.spillPartition(gp.part)
	src := c.emitReady(gp.src)
	pos := attr{name: "pos", ex: &eLoad{buf: posBuf, k: vector.Int, idx: theIdx}}
	return c.scatterFragment(src, pos, gp.n, true /* permutation: parallel-safe */)
}

// materializeScattered lowers a virtual strided scatter into a fragment
// that evaluates the source expressions at σ(idx).
func (c *compiler) materializeScattered(d *desc) *desc {
	k, L := d.lanes, d.runLen
	// σ(j) = (j mod L)*k + j/L
	sigma := binExpr(kernel.BAdd,
		binExpr(kernel.BMul, binExpr(kernel.BMod, theIdx, constI(int64(L))), constI(int64(k))),
		binExpr(kernel.BDiv, theIdx, constI(int64(L))))
	out := &desc{n: d.logicalN}
	for _, a := range d.attrs {
		na := attr{name: a.name, ex: subIdx(a.ex, sigma)}
		if a.validEx != nil {
			na.validEx = subIdx(a.validEx, sigma)
		}
		out.attrs = append(out.attrs, na)
	}
	return c.bufferize(out)
}

// subIdx substitutes the index leaf of an expression tree.
func subIdx(e, repl expr) expr {
	switch x := e.(type) {
	case *eIdx:
		return repl
	case *eGen:
		// A generated value evaluated at a substituted index loses its
		// closed form; keep it symbolic via the explicit formula.
		return subIdx(genFormula(x.m), repl)
	case *eBin:
		return &eBin{op: x.op, a: subIdx(x.a, repl), b: subIdx(x.b, repl)}
	case *eSel:
		return &eSel{c: subIdx(x.c, repl), a: subIdx(x.a, repl), b: subIdx(x.b, repl)}
	case *eCast:
		return &eCast{toF: x.toF, a: subIdx(x.a, repl)}
	case *eLoad:
		return &eLoad{buf: x.buf, k: x.k, idx: subIdx(x.idx, repl)}
	case *eLoadValid:
		return &eLoadValid{buf: x.buf, idx: subIdx(x.idx, repl)}
	}
	return e
}

// genFormula expands run metadata into explicit integer index arithmetic:
// from + floor(idx*num/den), optionally mod cap. Indices are non-negative,
// so for a non-negative numerator plain integer division is the floor; a
// negative numerator floors via -ceil(-x).
func genFormula(m vector.RunMeta) expr {
	var e expr = theIdx
	num, den := m.StepNum, m.Den()
	switch {
	case num == 0:
		return capped(constI(m.From), m.Cap)
	case num > 0:
		if num != 1 {
			e = binExpr(kernel.BMul, e, constI(num))
		}
		if den != 1 {
			e = binExpr(kernel.BDiv, e, constI(den))
		}
	default: // num < 0: prod ≤ 0, floor(prod/den) = -((-prod + den-1)/den)
		prod := binExpr(kernel.BMul, e, constI(-num))
		if den == 1 {
			e = binExpr(kernel.BSub, constI(0), prod)
		} else {
			up := binExpr(kernel.BAdd, prod, constI(den-1))
			e = binExpr(kernel.BSub, constI(0), binExpr(kernel.BDiv, up, constI(den)))
		}
	}
	if m.From != 0 {
		e = binExpr(kernel.BAdd, e, constI(m.From))
	}
	return capped(e, m.Cap)
}

// capped applies the modulo cap (the kernel's BMod is non-negative).
func capped(e expr, cap int64) expr {
	if cap > 0 {
		return binExpr(kernel.BMod, e, constI(cap))
	}
	return e
}

// realScatter lowers a materialized scatter: positions and values are
// evaluated per source element and written randomly into the output.
func (c *compiler) realScatter(s *core.Stmt) *desc {
	src := c.emitReady(c.plainify(c.desc(s.Args[0])))
	posD := c.emitReady(c.plainify(c.desc(s.Args[2])))
	if src.layout != layoutDense || posD.layout != layoutDense {
		return c.bulk(s)
	}
	pos, ok := posD.single(s.Kp[2])
	if !ok {
		cerrf("Scatter: position keypath %q does not name a single attribute", s.Kp[2])
	}
	n2 := c.desc(s.Args[1]).logical()
	return c.scatterFragment(src, pos, n2, c.opt.ScatterParallel)
}

// scatterFragment emits the scatter loop. Parallel execution is only
// race-free when positions are unique.
//
// Source attributes may carry validity: an ε source value stores its slot
// as ε. With duplicate positions this deviates from the interpreter (which
// skips the write, keeping the previous value) — the frontends only scatter
// unique positions, where both behaviors coincide.
func (c *compiler) scatterFragment(src *desc, pos attr, n2 int, parallel bool) *desc {
	extent := 1
	if parallel {
		extent = min(defaultExtent, max(1, src.n))
	}
	f := &kernel.Fragment{
		Name:   fmt.Sprintf("scatter_%d", len(c.kern.Frags)),
		Extent: extent, Intent: (src.n + extent - 1) / extent, N: src.n,
		Prov: kernel.Prov{Kind: "scatter", Stmts: []int{c.cur}},
	}
	var body []kernel.Instr
	em := newEmitter(&body)
	if pos.validEx != nil {
		pv := em.emit(pos.validEx)
		em.push(kernel.Instr{Op: kernel.IGuard, A: pv})
	}
	p := em.emit(pos.ex)
	// In-bounds guard: out-of-range positions are silently dropped.
	inb := em.emit(&eBin{op: kernel.BAnd,
		a: &eBin{op: kernel.BGe, a: pos.ex, b: constI(0)},
		b: &eBin{op: kernel.BGt, a: constI(int64(n2)), b: pos.ex}})
	em.push(kernel.Instr{Op: kernel.IGuard, A: inb})
	out := &desc{n: n2}
	for _, a := range src.attrs {
		buf := c.addBuf("scat."+a.name, a.kind(), n2, true, false)
		v := em.emitAs(a.ex, a.kind())
		st := kernel.Instr{Op: kernel.IStore, Buf: buf, A: p, B: v,
			Float: a.kind() == vector.Float}
		if a.validEx != nil {
			st.C = em.emit(a.validEx)
		}
		em.push(st)
		out.attrs = append(out.attrs, attr{name: a.name,
			ex:      &eLoad{buf: buf, k: a.kind(), idx: theIdx},
			validEx: &eLoadValid{buf: buf, idx: theIdx}})
	}
	f.Loops = []kernel.Loop{{Body: body}}
	c.addFrag(f)
	return out
}

// miniInterp evaluates one operator with interpreter semantics over
// in-memory vectors. The arena, when non-nil, is the surrounding plan
// run's: the mini-program's output is adopted into kernel buffers, so its
// storage must live exactly as long as the run.
func miniInterp(op core.Op, kp []string, outNames []string, stmtTmpl *core.Stmt, ar *vector.Arena, args ...*vector.Vector) (*vector.Vector, error) {
	var p core.Program
	st := interp.MemStorage{}
	refs := make([]core.Ref, len(args))
	for i, a := range args {
		name := fmt.Sprintf("$%d", i)
		st[name] = a
		refs[i] = p.Add(core.Stmt{Op: core.OpLoad, Name: name})
	}
	s := core.Stmt{Op: op, Args: refs, Kp: kp, Out: outNames}
	if stmtTmpl != nil {
		s = *stmtTmpl
		s.Args = refs
	}
	target := p.Add(s)
	if ar == nil {
		// An unpooled plan run has no arena; the zero Arena allocates from
		// the heap and still marks this as a nested evaluation, not a query.
		ar = new(vector.Arena)
	}
	res, err := interp.Run(context.Background(), &p, st, interp.Opts{Arena: ar})
	if err != nil {
		return nil, err
	}
	return res.Value(target), nil
}

// bulkStats synthesizes the cost profile of a bulk (fully materializing)
// step: every input is read and the output written through memory, which is
// exactly the bulk-processing cost the paper attributes to Ocelot.
func bulkStats(name string, random bool) func(args []*vector.Vector, out *vector.Vector) exec.FragStats {
	return func(args []*vector.Vector, out *vector.Vector) exec.FragStats {
		fs := exec.FragStats{Name: "bulk:" + name, Sequential: false}
		var n int64
		for _, a := range args {
			bytes := int64(a.Len()) * int64(len(a.Names())) * 8
			fs.SeqBytes += bytes
			if int64(a.Len()) > n {
				n = int64(a.Len())
			}
		}
		outBytes := int64(out.Len()) * int64(len(out.Names())) * 8
		fs.SeqBytes += outBytes
		fs.StoreBytes = outBytes
		fs.Items = n
		fs.IntOps = n
		fs.Extent = out.Len()
		fs.Intent = 1
		if random {
			fs.RandAccesses = int64(out.Len())
			fs.RandByBuf = map[int]exec.RandCount{0: {Bytes: outBytes, Count: int64(out.Len())}}
		}
		return fs
	}
}

// bulk compiles a statement as a materializing bulk step (the semantic
// fallback, and the whole execution model under Options.ForceBulk).
func (c *compiler) bulk(s *core.Stmt) *desc {
	schema, n := c.bulkSchema(s)
	inputs := make([]converter, len(s.Args))
	for i, a := range s.Args {
		inputs[i] = c.converter(c.desc(a))
	}
	out := &desc{n: n}
	var outBufs []int
	var names []string
	for _, a := range schema {
		buf := c.addBuf("bulk."+a.name, a.kind, n, false, true)
		outBufs = append(outBufs, buf)
		names = append(names, a.name)
		out.attrs = append(out.attrs, attr{name: a.name,
			ex:      &eLoad{buf: buf, k: a.kind, idx: theIdx},
			validEx: &eLoadValid{buf: buf, idx: theIdx}})
	}
	tmpl := *s
	random := s.Op == core.OpGather || s.Op == core.OpScatter || s.Op == core.OpPartition
	c.plan.steps = append(c.plan.steps, &bulkStep{
		name:    s.Op.String(),
		stmts:   []int{int(s.ID)},
		inputs:  inputs,
		outBufs: outBufs,
		attrs:   names,
		evalFn: func(args []*vector.Vector, ar *vector.Arena) (*vector.Vector, error) {
			return miniInterp(s.Op, nil, nil, &tmpl, ar, args...)
		},
		statsFn: bulkStats(s.Op.String(), random),
	})
	return out
}

type attrSchema struct {
	name string
	kind vector.Kind
}

// bulkSchema statically infers the output schema and size of a statement —
// Voodoo's determinism makes every size a compile-time constant.
func (c *compiler) bulkSchema(s *core.Stmt) ([]attrSchema, int) {
	// Pending special forms (an undissolved Partition scatter, an
	// unmaterialized fold-select) carry no resolvable attributes of their
	// own; the bulk fallback consumes materialized operands, so resolve
	// schemas against the plainified descriptors the converters will use.
	argN := func(i int) int { return c.plainify(c.desc(s.Args[i])).logical() }
	argSchema := func(i int, kp, out string) []attrSchema {
		d := c.plainify(c.desc(s.Args[i]))
		names, idx, ok := d.resolve(kp)
		if !ok {
			cerrf("%s: cannot resolve keypath %q for bulk schema", s.Op, kp)
		}
		var res []attrSchema
		for j, rel := range names {
			name := out
			if rel != "" {
				if out != "" {
					name = out + "." + rel
				} else {
					name = rel
				}
			}
			res = append(res, attrSchema{name: name, kind: d.attrs[idx[j]].kind()})
		}
		return res
	}
	switch s.Op {
	case core.OpConstant:
		k := vector.Int
		if s.IsFloat {
			k = vector.Float
		}
		return []attrSchema{{s.Out[0], k}}, 1
	case core.OpRange:
		n := s.Size
		if len(s.Args) == 1 {
			n = argN(0)
		}
		return []attrSchema{{s.Out[0], vector.Int}}, n
	case core.OpCross:
		return []attrSchema{{s.Out[0], vector.Int}, {s.Out[1], vector.Int}}, argN(0) * argN(1)
	case core.OpZip:
		n := min(argN(0), argN(1))
		return append(argSchema(0, s.Kp[0], s.Out[0]), argSchema(1, s.Kp[1], s.Out[1])...), n
	case core.OpProject:
		return argSchema(0, s.Kp[0], s.Out[0]), argN(0)
	case core.OpUpsert:
		d := c.desc(s.Args[0])
		var res []attrSchema
		replaced := false
		newKind := argSchema(1, s.Kp[1], s.Out[0])[0].kind
		for _, a := range d.attrs {
			if a.name == s.Out[0] {
				res = append(res, attrSchema{s.Out[0], newKind})
				replaced = true
				continue
			}
			res = append(res, attrSchema{a.name, a.kind()})
		}
		if !replaced {
			res = append(res, attrSchema{s.Out[0], newKind})
		}
		return res, argN(0)
	case core.OpGather:
		d := c.desc(s.Args[0])
		var res []attrSchema
		for _, a := range d.attrs {
			res = append(res, attrSchema{a.name, a.kind()})
		}
		return res, argN(1)
	case core.OpScatter:
		d := c.desc(s.Args[0])
		var res []attrSchema
		for _, a := range d.attrs {
			res = append(res, attrSchema{a.name, a.kind()})
		}
		return res, argN(1)
	case core.OpMaterialize, core.OpBreak:
		d := c.desc(s.Args[0])
		var res []attrSchema
		for _, a := range d.attrs {
			res = append(res, attrSchema{a.name, a.kind()})
		}
		return res, argN(0)
	case core.OpPartition:
		return []attrSchema{{s.Out[0], vector.Int}}, argN(0)
	case core.OpFoldSelect:
		return []attrSchema{{s.Out[0], vector.Int}}, argN(0)
	case core.OpFoldSum, core.OpFoldMin, core.OpFoldMax, core.OpFoldScan:
		d := c.desc(s.Args[0])
		k := vector.Int
		if a, ok := d.single(s.FoldVal); ok {
			k = a.kind()
		}
		return []attrSchema{{s.Out[0], k}}, argN(0)
	default:
		if s.Op.IsArith() {
			k := vector.Int
			a1 := argSchema(0, s.Kp[0], "x")[0].kind
			a2 := argSchema(1, s.Kp[1], "x")[0].kind
			if (a1 == vector.Float || a2 == vector.Float) &&
				s.Op != core.OpGreater && s.Op != core.OpEquals {
				k = vector.Float
			}
			n1, n2 := argN(0), argN(1)
			n := min(n1, n2)
			if n1 == 1 {
				n = n2
			} else if n2 == 1 {
				n = n1
			}
			return []attrSchema{{s.Out[0], k}}, n
		}
	}
	cerrf("%s: no bulk schema", s.Op)
	return nil, 0
}

// eGID is the work-item id as an expression (used for run base addresses).
type eGID struct{}

func (eGID) kind() vector.Kind { return vector.Int }
