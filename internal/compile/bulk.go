package compile

import (
	"fmt"
	"slices"
	"strings"

	"voodoo/internal/core"
	"voodoo/internal/exec"
	"voodoo/internal/interp"
	"voodoo/internal/kernel"
	"voodoo/internal/vector"
	"voodoo/internal/verify"
)

// emittable reports whether an expression tree contains only nodes the
// fragment emitter can lower.
func emittable(e expr) bool {
	switch x := e.(type) {
	case *ePartRef, *ePos:
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
		si := d.sel
		out = c.spillFilt(si, []attr{{name: si.outName, ex: thePos}}, "sel", "select",
			[]int{si.stmt}, func(string) string { return "selpos" })
	case d.filt != nil && d.filt.sel.inPlace:
		out = readInPlace(d.filt)
	case d.filt != nil:
		fi := d.filt
		out = c.spillFilt(fi.sel, fi.attrs, "filt", "filter", []int{fi.sel.stmt, fi.stmt},
			func(name string) string { return "filt." + name })
	case d.gpend != nil:
		out = c.materializeGrouped(d.gpend)
	case d.layout == layoutScattered:
		out = c.materializeScattered(d)
	}
	d.plainCache = out
	return out
}

// readInPlace plainifies a pending filter without moving a row: each
// attribute is read at its source row, and the selection's predicate is
// and-ed into its validity, so a rejected row is ε in its own slot where
// spillFilt would compact the selected rows to their run's start. The
// selected rows keep their order either way; only where the ε slots sit
// differs, which foldsThrough makes sure no consumer observes.
func readInPlace(fi *filtInfo) *desc {
	pred := fi.sel.pred
	memo := map[expr]expr{}
	out := &desc{n: fi.sel.srcN}
	for _, a := range fi.attrs {
		na := attr{name: a.name, ex: subIdx(a.ex, thePos, theIdx, memo), validEx: pred}
		if a.validEx != nil {
			na.validEx = andValid(pred, subIdx(a.validEx, thePos, theIdx, memo))
		}
		out.attrs = append(out.attrs, na)
	}
	return out
}

// foldsThrough decides whether the FoldSelect sel is read in place
// (readInPlace) rather than spilled (spillFilt). One forward walk over the
// statements after it follows the vectors over its rows and accepts only
// consumers that cannot observe where ε slots sit:
//
//   - a Gather through sel of a source that is not over its rows;
//   - Project; Upsert, Zip and arithmetic whose operands are over its rows
//     or Constants;
//   - a Gather whose positions are over its rows and whose source is not
//     (a foreign-key lookup);
//   - a Partition of such a vector by the pivots 0, 1, … (a Range), an
//     Upsert of its positions into such a vector, and the Scatter of the
//     partitioned vector through them — the virtual scatter groupedFold
//     lowers;
//   - FoldSum, FoldMin and FoldMax keyed on that Partition's attribute, or
//     global over a vector of its rows.
//
// Anything else refuses: a root, FoldSelect and FoldScan, a fold keyed on
// any other attribute (its runs would span different rows), Range,
// Materialize, Break, Cross, Persist, and a Zip or arithmetic with any
// other vector. The fold results are the same either way: an ε row still
// counts in group zero's occupancy, and groupedFold's guard on the group
// id's validity skips it as it skips a spilled filter's padding.
//
// In place, a consumer also evaluates the rows the selection rejects. An
// attribute whose value may fault there — it divides by something other
// than a non-zero Constant — may reach only a grouped fold's values, which
// run behind groupedFold's guard; as a partitioned group id, a lookup
// position or a global fold's value it would run ahead of it, so the walk
// refuses.
func (c *compiler) foldsThrough(sel core.Ref) bool {
	const (
		rows  = iota + 1 // a vector over sel's rows
		part             // a Partition of one, or an Upsert of its positions
		group            // its virtual Scatter
	)
	stmts := c.prog.Stmts
	kind := map[core.Ref]int{}
	partOf := map[core.Ref]core.Ref{} // part and group statements → their Partition
	// faulty names the attributes of a rows statement that may fault.
	faulty := map[core.Ref][]string{}
	faults := func(r core.Ref, kp string) bool {
		return slices.ContainsFunc(faulty[r], func(n string) bool {
			return kp == "" || n == kp || strings.HasPrefix(n, kp+".") || strings.HasPrefix(kp, n+".")
		})
	}
	isConst := func(r core.Ref) bool { return stmts[r].Op == core.OpConstant }
	for i := int(sel) + 1; i < len(stmts); i++ {
		s := &stmts[i]
		touched := false
		for _, a := range s.Args {
			touched = touched || a == sel || kind[a] != 0
		}
		if !touched {
			continue
		}
		arg := func(j int) int { return kind[s.Args[j]] }
		argFaults := func(j int) bool { return faults(s.Args[j], s.Kp[j]) }
		switch {
		case s.Op == core.OpGather && s.Args[1] == sel:
			if s.Args[0] == sel || arg(0) != 0 {
				return false
			}
			kind[s.ID] = rows
		case slices.Contains(s.Args, sel):
			return false
		case s.Op == core.OpProject && arg(0) == rows:
			kind[s.ID] = rows
			if argFaults(0) {
				faulty[s.ID] = []string{s.Out[0]}
			}
		case s.Op == core.OpUpsert && arg(0) == rows && arg(1) == part:
			kind[s.ID], partOf[s.ID] = part, partOf[s.Args[1]]
		case s.Op == core.OpUpsert || s.Op == core.OpZip || s.Op.IsArith():
			for _, a := range s.Args {
				if kind[a] != rows && !isConst(a) {
					return false
				}
			}
			kind[s.ID] = rows
			switch {
			case s.Op == core.OpUpsert:
				faulty[s.ID] = slices.DeleteFunc(slices.Clone(faulty[s.Args[0]]),
					func(n string) bool { return n == s.Out[0] })
				if argFaults(1) {
					faulty[s.ID] = append(faulty[s.ID], s.Out[0])
				}
			case s.Op == core.OpZip:
				for j := range 2 {
					if argFaults(j) {
						faulty[s.ID] = append(faulty[s.ID], s.Out[j])
					}
				}
			default:
				d := &stmts[s.Args[1]]
				divides := (s.Op == core.OpDivide || s.Op == core.OpModulo) &&
					(!isConst(d.ID) || (d.IntVal == 0 && d.FloatVal == 0))
				if divides || argFaults(0) || argFaults(1) {
					faulty[s.ID] = []string{s.Out[0]}
				}
			}
		case s.Op == core.OpGather:
			if arg(0) != 0 || arg(1) != rows || argFaults(1) {
				return false
			}
			kind[s.ID] = rows
		case s.Op == core.OpPartition:
			piv := &stmts[s.Args[1]]
			byID := piv.Op == core.OpRange && piv.IntVal == 0 && piv.Step == 1
			if arg(0) != rows || argFaults(0) || arg(1) != 0 || s.Kp[0] == "" || !byID {
				return false
			}
			kind[s.ID], partOf[s.ID] = part, s.ID
		case s.Op == core.OpScatter:
			pos := &stmts[s.Args[2]]
			if arg(2) != part || (pos.Op == core.OpUpsert && s.Kp[2] != pos.Out[0]) {
				return false
			}
			p := partOf[pos.ID]
			// The scattered vector is the one partitioned, and not the
			// Gather itself: groupedFold needs it plain.
			if s.Args[0] != stmts[p].Args[0] || stmts[s.Args[0]].Op == core.OpGather || arg(1) != rows {
				return false
			}
			kind[s.ID], partOf[s.ID] = group, p
		case s.Op == core.OpFoldSum || s.Op == core.OpFoldMin || s.Op == core.OpFoldMax:
			keyed := arg(0) == group && s.Kp[0] == stmts[partOf[s.Args[0]]].Kp[0]
			global := arg(0) == rows && s.Kp[0] == "" && !faults(s.Args[0], s.FoldVal)
			if !keyed && !global {
				return false
			}
		default:
			return false
		}
	}
	for r := range kind {
		if c.uses[r] == 0 {
			return false // a root shows its ε slots
		}
	}
	return true
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
		runLen: d.runLen, grp: d.grp}
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
	case *ePos:
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
	// A load at the index, or of a one-slot buffer at its slot, reads the
	// buffer as it is.
	at := func(idx expr) bool {
		k, ok := idx.(*eConst)
		return idx == expr(theIdx) || (ok && d.n == 1 && !k.isF && k.i == 0)
	}
	direct := true
	for _, a := range d.attrs {
		ld, ok := a.ex.(*eLoad)
		if !ok || !at(ld.idx) || c.kern.Bufs[ld.buf].Size != d.n {
			direct = false
			break
		}
		if a.validEx != nil {
			lv, ok := a.validEx.(*eLoadValid)
			same, shared := c.sameMask[ld.buf]
			if !ok || (lv.buf != ld.buf && !(shared && same == lv.buf)) || !at(lv.idx) {
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
		runLen: d.runLen, grp: d.grp}
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

// spillFilt materializes a pending selection: the paper's Figure 1
// selection, writing each attribute — an expression over the selected
// position, thePos — at the run-aligned slots the selection fills (ε beyond
// each run's count), branching or predicated. A pending FoldSelect is the
// one-attribute case whose attribute is the position itself; a
// gather-through-select writes the selected values. name prefixes the
// fragment, kind and stmts are its provenance, and bufName names each
// attribute's output buffer.
func (c *compiler) spillFilt(si *selInfo, attrs []attr, name, kind string, stmts []int, bufName func(attr string) string) *desc {
	ctrl := si.ctrl
	if ctrl.global {
		ctrl.runLen = si.srcN
	}
	numRuns := ctrl.numRuns(si.srcN)
	f := &kernel.Fragment{
		Name:   fmt.Sprintf("%s_%d", name, len(c.kern.Frags)),
		Extent: numRuns, Intent: ctrl.runLen, N: si.srcN,
		Prov: kernel.Prov{Kind: kind, Stmts: stmts, Predicated: c.opt.Predication},
	}
	var body []kernel.Instr
	em := newEmitter(&body)
	cursor := em.alloc()
	f.Pre = []kernel.Instr{{Op: kernel.IConstI, Dst: cursor, Imm: 0}}
	pred := em.emit(si.pred)
	base := em.emit(binExpr(kernel.BMul, &eGID{}, constI(int64(ctrl.runLen))))
	addr := em.alloc()
	em.push(kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: addr, A: base, B: cursor})
	out := &desc{n: si.srcN}
	if !c.opt.Predication {
		em.push(kernel.Instr{Op: kernel.IGuard, A: pred})
	}
	em.memo[expr(thePos)] = kernel.RegIdx
	// A column with no ε of its own is valid exactly in the slots the
	// selection writes, whichever column it is: all such columns share the
	// validity of the first, so consumers test it once.
	var written *eLoadValid
	for _, a := range attrs {
		buf := c.addBuf(bufName(a.name), a.kind(), si.srcN, true, false)
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
			// Unconditional write; validity = predicate; the cursor
			// advances by the predicate, so slots beyond the final cursor
			// end up invalid.
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
// bulk step, the interpreter's Partition of its values by its pivot list,
// and returns the buffer holding them. Only this sort reads the pivot list,
// so only it converts one. The result is cached on the partInfo so
// multiple consumers share one sort.
func (c *compiler) spillPartition(pi *partInfo) int {
	if pi.spilled {
		return pi.buf
	}
	valsConv := c.converter(&desc{n: pi.srcN, attrs: []attr{{name: "v", ex: pi.valEx}}})
	pivConv := c.converter(pi.pivots)
	posBuf := c.addBuf("part", vector.Int, pi.srcN, false, true)
	partition := core.Stmt{Op: core.OpPartition, Kp: []string{"v", "p"}, Out: []string{"pos"}}
	c.plan.steps = append(c.plan.steps, &bulkStep{
		name:    "partition",
		stmts:   []int{pi.stmt},
		inputs:  []converter{valsConv, pivConv},
		outBufs: []int{posBuf},
		attrs:   []string{"pos"},
		evalFn: func(args []*vector.Vector, ar *vector.Arena) (*vector.Vector, error) {
			return interp.Eval(partition, args, ar)
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
	memo := map[expr]expr{}
	for _, a := range d.attrs {
		na := attr{name: a.name, ex: subIdx(a.ex, theIdx, sigma, memo)}
		if a.validEx != nil {
			na.validEx = subIdx(a.validEx, theIdx, sigma, memo)
		}
		out.attrs = append(out.attrs, na)
	}
	return c.bufferize(out)
}

// subIdx substitutes leaf — the index theIdx or the selected position
// thePos — in an expression tree. memo maps every node already rewritten to
// its image, so a node the tree shares stays shared and the emitter's
// identity CSE still fires on it.
func subIdx(e, leaf, repl expr, memo map[expr]expr) expr {
	if r, ok := memo[e]; ok {
		return r
	}
	var r expr
	switch x := e.(type) {
	case *eIdx, *ePos:
		r = e
		if e == leaf {
			r = repl
		}
	case *eGen:
		// A generated value evaluated at a substituted index loses its
		// closed form; keep it symbolic via the explicit formula.
		r = e
		if leaf == expr(theIdx) {
			r = subIdx(genFormula(x.m), leaf, repl, memo)
		}
	case *eBin:
		r = &eBin{op: x.op, a: subIdx(x.a, leaf, repl, memo), b: subIdx(x.b, leaf, repl, memo)}
	case *eSel:
		r = &eSel{c: subIdx(x.c, leaf, repl, memo), a: subIdx(x.a, leaf, repl, memo), b: subIdx(x.b, leaf, repl, memo)}
	case *eCast:
		r = &eCast{toF: x.toF, a: subIdx(x.a, leaf, repl, memo)}
	case *eLoad:
		r = &eLoad{buf: x.buf, k: x.k, idx: subIdx(x.idx, leaf, repl, memo)}
	case *eLoadValid:
		r = &eLoadValid{buf: x.buf, idx: subIdx(x.idx, leaf, repl, memo)}
	default:
		r = e
	}
	memo[e] = r
	return r
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
	// Values of one grouped fold scatter from their compact slots, one
	// per group: the padded layout only adds ε slots, which store nothing.
	if (src.layout != layoutDense || posD.layout != layoutDense) && !sameGroups(src, posD) {
		return c.bulk(s)
	}
	pos, ok := posD.single(s.Kp[2])
	if !ok {
		cerrf("Scatter: position keypath %q does not name a single attribute", s.Kp[2])
	}
	n2 := c.desc(s.Args[1]).logical()
	if ld, ok := pos.ex.(*eLoad); ok && src.layout == layoutGroupCompact &&
		ld.buf == src.grp.gid && ld.idx == expr(theIdx) && n2 <= src.n {
		return groupView(src, pos, n2)
	}
	return c.scatterFragment(src, pos, n2, c.opt.ScatterParallel)
}

// groupView is a Scatter of one grouped fold's results by the fold's own
// group id to its first n2 slots: the group id at compact slot p is p, so
// the scatter writes slot p from slot p where the group id is valid, and
// writes no other slot. It moves nothing: every attribute is read at its
// own slot, ε where the group id is, and a divisor that may be zero reads
// 1 where the value is ε, as scatterFragment guards it.
func groupView(src *desc, pos attr, n2 int) *desc {
	out := &desc{n: n2}
	valid := map[expr]expr{} // an attribute's validity → its validity in the view
	for _, a := range src.attrs {
		v, ok := valid[a.validEx]
		if !ok {
			v = andValid(pos.validEx, a.validEx)
			valid[a.validEx] = v
		}
		ex := a.ex
		if mayFault(ex) {
			ex = guardDivisors(ex, v, map[expr]expr{})
		}
		out.attrs = append(out.attrs, attr{name: a.name, ex: ex, validEx: v})
	}
	return out
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
		// A slot whose source is ε — a spilled filter's padding among them
		// — stores ε, so its value must not fault there either.
		ex := a.ex
		if a.validEx != nil && mayFault(ex) {
			ex = guardDivisors(ex, a.validEx, map[expr]expr{})
		}
		v := em.emitAs(ex, a.kind())
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

// guardDivisors rewrites e so that no division or modulo in it faults where
// valid is 0: a divisor that may be zero reads 1 there. Where valid is 1 the
// value is e's, faults included. memo keeps shared nodes shared.
func guardDivisors(e, valid expr, memo map[expr]expr) expr {
	if r, ok := memo[e]; ok {
		return r
	}
	r := e
	switch x := e.(type) {
	case *eBin:
		a, b := guardDivisors(x.a, valid, memo), guardDivisors(x.b, valid, memo)
		if x.op == kernel.BDiv || x.op == kernel.BMod {
			if k, ok := b.(*eConst); !ok || (k.i == 0 && k.f == 0) {
				one := constI(1)
				if b.kind() == vector.Float {
					one = constF(1)
				}
				b = &eSel{c: valid, a: b, b: one}
			}
		}
		if a != x.a || b != x.b {
			r = &eBin{op: x.op, a: a, b: b}
		}
	case *eSel:
		cc, a, b := guardDivisors(x.c, valid, memo), guardDivisors(x.a, valid, memo), guardDivisors(x.b, valid, memo)
		if cc != x.c || a != x.a || b != x.b {
			r = &eSel{c: cc, a: a, b: b}
		}
	case *eCast:
		if a := guardDivisors(x.a, valid, memo); a != x.a {
			r = &eCast{toF: x.toF, a: a}
		}
	case *eLoad:
		if idx := guardDivisors(x.idx, valid, memo); idx != x.idx {
			r = &eLoad{buf: x.buf, k: x.k, idx: idx}
		}
	case *eLoadValid:
		if idx := guardDivisors(x.idx, valid, memo); idx != x.idx {
			r = &eLoadValid{buf: x.buf, idx: idx}
		}
	}
	memo[e] = r
	return r
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
// fallback, and the whole execution model under Options.ForceBulk). Its
// output buffers are declared from the verifier's static model of s, which
// mirrors the interpreter the step runs.
func (c *compiler) bulk(s *core.Stmt) *desc {
	if c.model == nil {
		c.model, c.modelDiags = verify.Derive(c.prog, c.st)
	}
	m := c.model[s.ID]
	if !m.Known {
		if verify.HasErrors(c.modelDiags) {
			cerrf("%s: no static schema: %s", s.Op, firstError(c.modelDiags))
		}
		cerrf("%s: no static schema", s.Op)
	}
	inputs := make([]converter, len(s.Args))
	for i, a := range s.Args {
		inputs[i] = c.converter(c.desc(a))
	}
	out := &desc{n: m.N}
	var outBufs []int
	for _, name := range m.Names {
		k := m.Kind(name)
		buf := c.addBuf("bulk."+name, k, m.N, false, true)
		outBufs = append(outBufs, buf)
		out.attrs = append(out.attrs, attr{name: name,
			ex:      &eLoad{buf: buf, k: k, idx: theIdx},
			validEx: &eLoadValid{buf: buf, idx: theIdx}})
	}
	stmt := *s
	random := s.Op == core.OpGather || s.Op == core.OpScatter || s.Op == core.OpPartition
	c.plan.steps = append(c.plan.steps, &bulkStep{
		name:    s.Op.String(),
		stmts:   []int{int(s.ID)},
		inputs:  inputs,
		outBufs: outBufs,
		attrs:   m.Names,
		evalFn: func(args []*vector.Vector, ar *vector.Arena) (*vector.Vector, error) {
			// The output is adopted into kernel buffers: its storage is the
			// run's arena and lives exactly as long as the run.
			return interp.Eval(stmt, args, ar)
		},
		statsFn: bulkStats(s.Op.String(), random),
	})
	return out
}

// eGID is the work-item id as an expression (used for run base addresses).
type eGID struct{}

func (eGID) kind() vector.Kind { return vector.Int }

// eIV is the current loop iteration as an expression (a work item's
// iteration-th row of a table laid out one row per iteration).
type eIV struct{}

func (eIV) kind() vector.Kind { return vector.Int }
