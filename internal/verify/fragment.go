// Fragment-level verification: the fragment contract, buffer declaration
// consistency, loop-bound and geometry sanity, and an affine-index lattice
// that audits the compiler's sequential-vs-random access classification. The
// contract is checked by the one walk BatchFacts makes, whose facts package
// exec's batch tier runs from: a fragment the verifier passes is one the
// executor runs, and one it fails is one the executor refuses.
package verify

import (
	"fmt"
	"math"

	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

// fpos builds a fragment-scoped position.
func fpos(frag, section string, idx int) Pos {
	return Pos{Stmt: -1, Frag: frag, Section: section, Index: idx}
}

// Kernel verifies a whole compiled kernel: buffer declarations plus every
// fragment against those declarations.
func Kernel(k *kernel.Kernel) []Diagnostic {
	var diags []Diagnostic
	for i, b := range k.Bufs {
		if b.Size < 0 {
			diags = errorf(diags, NoPos, RuleBufDecl, "buf %d (%s): negative size %d", i, b.Name, b.Size)
		}
		if b.Name == "" {
			diags = errorf(diags, NoPos, RuleBufDecl, "buf %d: empty name", i)
		}
	}
	for _, f := range k.Frags {
		diags = append(diags, Fragment(f, k.Bufs)...)
	}
	return diags
}

// Fragment verifies one fragment. bufs supplies the kernel's buffer
// declarations; pass nil to skip declaration-dependent rules (VF003-VF005).
//
// The first rule of the fragment contract the fragment breaks comes from the
// walk BatchFacts makes (batchFacts.walk), which alone checks those rules: a
// register read no definition inside its own work item dominates (VF001), a
// buffer both loaded and stored (VF010), or an instruction the executor has
// no meaning for (VF002, VF011). The first two make what a fragment leaves
// depend on how its work items fall to workers; the executor refuses a
// fragment that breaks any of them with the same diagnostic.
func Fragment(f *kernel.Fragment, bufs []kernel.BufDecl) []Diagnostic {
	v := &fragVerifier{f: f, bufs: bufs, cls: map[kernel.Reg]affClass{}}
	v.geometry()

	// Affinity classes for all specials are affine-in-the-index by
	// construction.
	for _, r := range []kernel.Reg{kernel.RegGID, kernel.RegIV, kernel.RegIdx, kernel.RegJ} {
		v.cls[r] = affAffine
	}

	v.section("pre", f.Pre, false)
	for li, l := range f.Loops {
		name := fmt.Sprintf("loop%d", li)
		v.loopBound(name, l)
		v.section(name, l.Body, true)
	}
	v.section("post", f.Post, false)
	if len(f.PostLoopBody) > 0 {
		if f.Locals <= 0 {
			v.diags = errorf(v.diags, fpos(f.Name, "postloop", -1), RuleLocals,
				"post-loop body with no locals (Locals=%d): body never runs", f.Locals)
		}
		v.section("postloop", f.PostLoopBody, true)
	}

	if d := newBatchFacts(f).walk(f, nil); d != nil {
		v.diags = append(v.diags, *d)
	}
	return v.diags
}

// affClass is the affine-index lattice used to audit Seq markings:
// affConst (statically constant) < affAffine (affine in the work-item
// index) < affOther (data-dependent).
type affClass uint8

const (
	affConst affClass = iota
	affAffine
	affOther
)

type fragVerifier struct {
	f     *kernel.Fragment
	bufs  []kernel.BufDecl
	diags []Diagnostic

	cls map[kernel.Reg]affClass
}

func (v *fragVerifier) class(r kernel.Reg) affClass {
	if r < 0 {
		return affOther
	}
	if c, ok := v.cls[r]; ok {
		return c
	}
	// A never-defined register is not affine in the index; VF001 reports
	// the read itself.
	return affOther
}

// geometry checks the fragment's index-space parameters (VF008, VF006).
func (v *fragVerifier) geometry() {
	f := v.f
	pos := fpos(f.Name, "", -1)
	if f.Extent < 0 || f.Intent < 0 || f.N < 0 {
		v.diags = errorf(v.diags, pos, RuleGeometry,
			"negative geometry: extent=%d intent=%d n=%d", f.Extent, f.Intent, f.N)
	}
	if f.Locals < 0 {
		v.diags = errorf(v.diags, pos, RuleLocals, "negative locals %d", f.Locals)
	}
	// N guards idx < N; an N beyond the index space means the tail is
	// silently never reached. Only checkable when no loop iterates past
	// Intent (a longer static bound extends the blocked index space).
	if f.Extent > 0 && f.Intent > 0 && f.N > f.Extent*f.Intent {
		extended := false
		for _, l := range f.Loops {
			bound := l.Bound
			if bound <= 0 {
				bound = f.Intent
			}
			if bound > f.Intent {
				extended = true
			}
		}
		if !extended {
			v.diags = errorf(v.diags, pos, RuleGeometry,
				"n=%d exceeds the index space extent*intent=%d", f.N, f.Extent*f.Intent)
		}
	}
}

// loopBound checks one loop's bound fields (VF007). Whether a dynamic bound
// register is defined at loop entry is VF001's business.
func (v *fragVerifier) loopBound(name string, l kernel.Loop) {
	pos := fpos(v.f.Name, name, -1)
	if l.Bound < 0 {
		v.diags = errorf(v.diags, pos, RuleLoopBound, "negative loop bound %d", l.Bound)
	}
	if l.BoundReg > 0 && l.BoundReg < kernel.FirstFree {
		v.diags = errorf(v.diags, pos, RuleLoopBound,
			"dynamic bound register r%d is a reserved special", l.BoundReg)
	}
}

// section runs the structural checks over one instruction sequence, then
// the affinity passes with Seq auditing. loopBody marks sections that repeat
// per iteration.
func (v *fragVerifier) section(name string, body []kernel.Instr, loopBody bool) {
	if len(body) == 0 {
		return
	}
	f := v.f

	for i, in := range body {
		pos := fpos(f.Name, name, i)
		switch in.Op {
		case kernel.ILoad, kernel.ILoadValid, kernel.IStore:
			if v.bufs != nil {
				if in.Buf < 0 || in.Buf >= len(v.bufs) {
					v.diags = errorf(v.diags, pos, RuleBufRange,
						"%s references buf %d outside the kernel's %d declarations", in, in.Buf, len(v.bufs))
					break
				}
				decl := v.bufs[in.Buf]
				if in.Op != kernel.ILoadValid && (decl.Kind == vector.Float) != in.Float {
					v.diags = errorf(v.diags, pos, RuleKindMismatch,
						"%s float=%v disagrees with buf %d (%s) declared %s", in, in.Float, in.Buf, decl.Name, decl.Kind)
				}
				if in.Op == kernel.IStore && in.C > 0 && !decl.Valid {
					v.diags = errorf(v.diags, pos, RuleStoreValid,
						"conditional-validity store into buf %d (%s) which has no validity mask", in.Buf, decl.Name)
				}
			}
		case kernel.ILoadLoc, kernel.IStoreLoc:
			if f.Locals <= 0 {
				v.diags = errorf(v.diags, pos, RuleLocals,
					"%s in a fragment with no scratch array (Locals=%d)", in, f.Locals)
			}
		}
	}

	// Affinity: propagate index classes to a practical fixpoint (loop
	// bodies feed their own next iteration, so run a few extra passes),
	// emitting VF009 on the final pass only.
	passes := 1
	if loopBody {
		passes = 4
	}
	for p := 0; p < passes; p++ {
		final := p == passes-1
		for i, in := range body {
			if final && in.Seq {
				switch in.Op {
				case kernel.ILoad, kernel.ILoadValid, kernel.IStore:
					if v.class(in.A) == affOther {
						v.diags = errorf(v.diags, fpos(f.Name, name, i), RuleSeqClass,
							"%s is marked sequential but its index r%d is not affine in the work-item index", in, in.A)
					}
				}
			}
			v.applyClass(in)
		}
	}
}

// applyClass updates the affinity class of the register in defines, if any.
func (v *fragVerifier) applyClass(in kernel.Instr) {
	r, flt, ok := in.Def()
	if !ok || flt || r < 0 {
		return
	}
	var c affClass
	switch in.Op {
	case kernel.IConstI:
		c = affConst
	case kernel.IMov:
		c = v.class(in.A)
	case kernel.IBin:
		a, b := v.class(in.A), v.class(in.B)
		switch in.BOp {
		case kernel.BAdd, kernel.BSub:
			c = max(a, b)
			if c > affAffine {
				c = affOther
			}
		case kernel.BMul:
			switch {
			case a == affConst && b == affConst:
				c = affConst
			case a == affConst && b == affAffine, a == affAffine && b == affConst:
				c = affAffine
			default:
				c = affOther
			}
		default:
			if a == affConst && b == affConst {
				c = affConst
			} else {
				c = affOther
			}
		}
	default:
		// Selects, loads, casts from float, scratch reads: data-dependent.
		c = affOther
	}
	v.cls[r] = c
}

// ---------------------------------------------------------------------------
// Batch specialization facts

// Class is how the batch tier runs one loop-body instruction over a tile of
// L work items × K consecutive iterations (pseudo-lane k·L + l).
type Class uint8

const (
	// Free: no loop-carried input, so the K iterations of a tile are
	// independent and the instruction runs once at full tile width.
	Free Class = iota
	// Carried: may observe the previous iteration (a register live across
	// iterations, the scratch array, a store that must stay ordered, a guard
	// that does), so it runs iteration by iteration over the L lanes.
	Carried
	// Reduce: acc = op(acc, x) with x free and acc otherwise untouched in
	// the loop. Nothing in the loop observes the intermediate values, so the
	// K values of a lane fold in one call, in iteration order.
	Reduce
)

// LoopFacts are the tiling facts of one loop body (or the post-loop body,
// a loop over RegJ).
type LoopFacts struct {
	// Class classifies every instruction of the body.
	Class []Class
	// Win lists, per register file (0 integer, 1 float), the free and
	// special registers a Carried instruction reads: iteration k finds them
	// in window [k·L, (k+1)·L) of their column.
	Win [2][]kernel.Reg
	// Spread lists the registers defined before the loop that a Free or
	// Reduce instruction reads: their L values are repeated over the K rows
	// of a tile at loop entry.
	Spread [2][]kernel.Reg
	// Independent: every instruction is Free and none reads the scratch
	// array or a register defined before the loop other than RegGID, so
	// nothing can observe the order the (work item, iteration) pairs are
	// enumerated in.
	Independent bool
	// Chains lists the body's scratch reductions, in program order, when
	// its Carried slice consists of nothing else; nil otherwise. Per lane
	// such a chain observes only its own slots, so over a tile whose chains
	// touch disjoint slots each chain can run on its own, in iteration order.
	Chains []Chain
	// Early lists the body's early points in program order: conjuncts of a
	// wide guard the tiles may apply right after their definition, ahead of
	// the guard (batchFacts.earlyPoints). What they need of the buffers at run
	// time is in Facts.Needs.
	Early []Early
}

// Early is one early point: instruction At of the body is the one
// definition of Reg, a conjunct of a later guard's and-tree.
type Early struct {
	At  int
	Reg kernel.Reg
}

// Need is a run-time requirement of the early points: buffer Buf holds at
// least Slots values, in the float domain when Float is set, else the
// integer one.
type Need struct {
	Buf, Slots int
	Float      bool
}

// Chain is a scratch reduction t = loc[i]; u = op(t, x); loc[i] = u, by
// the instruction indices of its three steps in the loop body: i and x are
// free, t and u are defined once in the body and read by the chain alone,
// and op is add, sub, mul, min or max in the scratch array's domain.
type Chain struct {
	Load, Op, Store int
}

// Facts are the fragment facts the executor's batch tier runs from
// (exec.compileBatch). The batch tier runs a fragment in tiles of work
// items × iterations whose register columns persist from tile to tile, so
// the fragment contract is exactly what makes that reordering — tile-major
// instead of element-major, work items cut however the scheduler likes —
// unobservable.
type Facts struct {
	// Violation is the first rule of the fragment contract the fragment
	// breaks, positioned; nil when it meets the contract, and only then are
	// the fields below filled.
	Violation *Diagnostic
	// IntRegs/FltRegs list the registers needing a column in each file,
	// ascending.
	IntRegs []kernel.Reg
	FltRegs []kernel.Reg
	// Loops holds the tiling facts of every loop in order, then those of
	// the post-loop body when there is one.
	Loops []LoopFacts
	// Needs lists what the early points of every loop need of the buffers:
	// a run whose buffers miss one of them runs without early points.
	Needs []Need

	regs [2][]uint8 // batchFacts.regs: regKonst marks the hoistable constants
}

// Hoisted reports whether in defines a constant into a register nothing
// else in the fragment defines: the column can be filled once, ahead of
// every section, instead of on each step.
func (f *Facts) Hoisted(in *kernel.Instr) bool {
	switch in.Op {
	case kernel.IConstI:
		return f.regs[0][in.Dst]&regKonst != 0
	case kernel.IConstF:
		return f.regs[1][in.Dst]&regKonst != 0
	}
	return false
}

// Register marks of the BatchFacts walk, one byte per register and file.
// The first group lasts the whole fragment, the second is reset per loop
// body by the tiling analysis.
const (
	regDef   uint8 = 1 << iota // a definition dominates the instruction being checked
	regUsed                    // some instruction defines it: it needs a column
	regKonst                   // its one definition in the fragment is a constant

	regBody    // defined in the loop body
	regMulti   // defined more than once in the body
	regRead    // read in the body
	regReread  // read more than once in the body
	regCarried // every definition in the body is Carried

	regLoop = regBody | regMulti | regRead | regReread | regCarried
)

// batchFacts is the walk BatchFacts makes over a fragment. regs holds the
// marks above, indexed by file (0 the integer file, 1 the float file) and
// register.
type batchFacts struct {
	regs [2][]uint8
	// undo lists the definitions to retract when the current sequence
	// ends: those of a loop or post-loop body, and those behind a guard.
	undo []kernel.RegUse
	// loaded and stored list the buffers the fragment reads and writes.
	loaded, stored []int
	// classes and lists back every LoopFacts' slices.
	classes []Class
	lists   []kernel.Reg
	// What section noted about the loop body it walked last, for tile: does
	// it touch and does it store to the scratch array, which buffers does it
	// store to through two instructions, and can anything in it be carried
	// at all.
	scratch, storesScratch, seeded bool
	storedOnce, storedTwice        []int
	// readsOuter: the body reads a register other than RegIV/RegIdx/RegJ
	// that a definition before the loop dominates.
	readsOuter bool
	// localsFloat is the domain of the fragment's scratch array.
	localsFloat bool
	// guards: the loop body walked last has a guard. n is the fragment's N,
	// which every lane's RegIdx stays below when it is positive.
	guards bool
	n      int
	// The early points' scan (earlyPoints): at holds three entries per integer
	// register — the body index of its definition so far plus base+1 (base
	// or less: none in this body), the non-constant instructions up to and
	// including it, and the stamp of the last and-tree walk that reached it.
	// early and needs back every LoopFacts.Early and Facts.Needs.
	at          []int32
	base, stamp int32
	early       []Early
	needs       []Need
	pendBuf     [8]pendingLoad
	leafBuf     [8]kernel.Reg
	earlyBuf    [8]Early
	needBuf     [4]Need
	// Inline backing for the short lists above: BatchFacts runs for every
	// fragment of every plan that misses the plan cache, and each list that
	// starts on the heap is two or three allocations there.
	undoBuf                           [8]kernel.RegUse
	loadBuf, stBuf, onceBuf, twiceBuf [4]int
	listBuf                           [12]kernel.Reg
}

func hasBuf(list []int, b int) bool {
	for _, have := range list {
		if have == b {
			return true
		}
	}
	return false
}

// noteBuf adds buffer b to list.
func noteBuf(list []int, b int) []int {
	if hasBuf(list, b) {
		return list
	}
	return append(list, b)
}

// perIteration reports whether u is a register the driver sets for every
// iteration: its value differs from row to row of a tile.
func perIteration(u kernel.RegUse) bool {
	return !u.Float && (u.R == kernel.RegIV || u.R == kernel.RegIdx || u.R == kernel.RegJ)
}

func fileOf(float bool) int {
	if float {
		return 1
	}
	return 0
}

// breaks builds the violation of rule at instruction at of the sequence
// being walked; walk adds the fragment and section to its position.
func breaks(at int, rule, format string, args ...any) *Diagnostic {
	return &Diagnostic{Level: Error, Pos: Pos{Stmt: -1, Index: at}, Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

// section checks one instruction sequence against the definitions that
// dominate its entry and returns the first rule of the contract it breaks.
// A guard may leave the sequence early, so only the definitions ahead of its
// first guard still dominate once it ends — and none of them when loop is
// set, for a body that may run zero times. For a loop body it also takes the
// notes tile starts from: decoding an instruction costs more than anything a
// pass does with it, and this runs for every fragment of every plan-cache
// miss.
func (bf *batchFacts) section(body []kernel.Instr, loop bool) *Diagnostic {
	scoped := loop
	bf.scratch, bf.storesScratch, bf.seeded, bf.readsOuter, bf.guards = false, false, false, false, false
	bf.storedOnce, bf.storedTwice = bf.onceBuf[:0], bf.twiceBuf[:0]
	for i := range body {
		ins := &body[i]
		if ins.Op > kernel.IStoreLoc {
			return breaks(i, RuleBadInstr, "unknown opcode %d", ins.Op)
		}
		uses, n := ins.Uses()
		for _, u := range uses[:n] {
			if u.R < 0 {
				return breaks(i, RuleBadInstr, "%s reads negative register r%d", ins, u.R)
			}
			m := &bf.regs[fileOf(u.Float)][u.R]
			if *m&regDef == 0 {
				// The interpreter's register file persists across work
				// items, so such a read observes a sibling item's leftovers
				// (a loop that ran zero times, a guard that skipped the
				// definition); a lane's column holds something else.
				return breaks(i, RuleUseBeforeDef,
					"%s reads r%d, which no definition in its own work item dominates", ins, u.R)
			}
			if loop {
				if *m&regRead != 0 {
					*m |= regReread
				}
				*m |= regRead
				bf.readsOuter = bf.readsOuter || (*m&regBody == 0 && !perIteration(u))
			}
		}
		switch ins.Op {
		case kernel.ILoad, kernel.ILoadValid:
			bf.loaded = noteBuf(bf.loaded, ins.Buf)
		case kernel.IStore:
			bf.stored = noteBuf(bf.stored, ins.Buf)
			if loop {
				if hasBuf(bf.storedOnce, ins.Buf) {
					bf.storedTwice, bf.seeded = noteBuf(bf.storedTwice, ins.Buf), true
				}
				bf.storedOnce = noteBuf(bf.storedOnce, ins.Buf)
			}
		case kernel.IGuard:
			scoped, bf.guards = true, loop
		case kernel.ILoadLoc:
			bf.scratch = true
		case kernel.IStoreLoc:
			bf.scratch, bf.storesScratch, bf.seeded = true, true, true
		}
		if r, flt, ok := ins.Def(); ok {
			if r < kernel.FirstFree {
				return breaks(i, RuleSpecialWrite, "%s writes reserved register r%d", ins, r)
			}
			m := &bf.regs[fileOf(flt)][r]
			// A constant is hoistable while it is the register's only
			// definition anywhere in the fragment.
			if *m&regUsed == 0 && (ins.Op == kernel.IConstI || ins.Op == kernel.IConstF) {
				*m |= regKonst
			} else {
				*m &^= regKonst
			}
			*m |= regUsed
			if loop {
				// Defined before the loop and in it: live across iterations.
				switch {
				case *m&regBody != 0:
					*m |= regMulti
				case *m&regDef != 0:
					*m |= regCarried
					bf.seeded = true
				}
				*m |= regBody
			}
			if *m&regDef == 0 {
				*m |= regDef
				if scoped {
					bf.undo = append(bf.undo, kernel.RegUse{R: r, Float: flt})
				}
			}
		}
	}
	for _, u := range bf.undo {
		bf.regs[fileOf(u.Float)][u.R] &^= regDef
	}
	bf.undo = bf.undo[:0]
	return nil
}

// tile classifies the instructions of one loop body for tiling, given the
// definitions that dominate the loop's entry (regDef). It is a dataflow
// fixpoint, not a shape match. A register is carried when the loop may
// observe or leave behind a value of it from another iteration: it is
// defined both before the loop and in the body (accumulators, cursors, and
// anything read afterwards), or a Carried instruction defines it. An
// instruction is Carried when it reads or defines a carried register,
// touches a scratch array the body also stores to, follows a Carried guard,
// or stores to a buffer another instruction of the body stores to as well
// (iterations may hit one slot through either). The tile runs the Free slice
// of all its iterations ahead of the Carried one, and the IR is not SSA: a
// free register with several definitions in the body would show a Carried
// reader its last one, so all its definitions become Carried. A reduction
// is exempt from both ends of that rule — it runs in the Free slice's pass,
// at its program position. Win and Spread are left unfiltered for hoisted
// constants (which are known only once every section has been walked);
// BatchFacts drops those.
func (bf *batchFacts) tile(body []kernel.Instr) LoopFacts {
	base := len(bf.classes)
	bf.classes = append(bf.classes, make([]Class, len(body))...)
	lf := LoopFacts{Class: bf.classes[base:]}
	class := lf.Class

	// Most bodies (selections, maps, scatters) have no register live across
	// iterations, no scratch store and no buffer stored twice — section
	// found no seed — and are Free throughout.
	scratch, storesScratch, storedTwice := bf.scratch, bf.storesScratch, bf.storedTwice
	carried := func(u kernel.RegUse) bool { return bf.regs[fileOf(u.Float)][u.R]&regCarried != 0 }
	allFree := true
	for changed := bf.seeded; changed; {
		changed = false
		guarded := false // behind a Carried guard
		for i := range body {
			in := &body[i]
			if class[i] == Carried {
				// Settled in an earlier pass, its registers with it.
				guarded = guarded || in.Op == kernel.IGuard
				continue
			}
			uses, n := in.Uses()
			def, flt, hasDef := in.Def()
			// A reduction has the form acc = op(acc, x), x free, acc neither
			// read nor defined by anything else in the body.
			if in.Op == kernel.IBin && in.Dst == in.A && in.B != in.Dst && !guarded &&
				bf.regs[fileOf(in.Float)][in.Dst]&(regMulti|regReread) == 0 && !carried(uses[1]) {
				class[i] = Reduce
				continue
			}
			c := guarded || (hasDef && carried(kernel.RegUse{R: def, Float: flt}))
			switch in.Op {
			case kernel.ILoadLoc, kernel.IStoreLoc:
				c = c || storesScratch
			case kernel.IStore:
				c = c || hasBuf(storedTwice, in.Buf)
			}
			for _, u := range uses[:n] {
				c = c || carried(u)
			}
			if !c {
				continue
			}
			class[i], allFree = Carried, false
			guarded = guarded || in.Op == kernel.IGuard
			if hasDef && !carried(kernel.RegUse{R: def, Float: flt}) {
				bf.regs[fileOf(flt)][def] |= regCarried
				changed = true
			}
			for _, u := range uses[:n] {
				if m := &bf.regs[fileOf(u.Float)][u.R]; *m&(regMulti|regCarried) == regMulti {
					*m |= regCarried
					changed = true
				}
			}
		}
	}
	// Reductions are not Free either.
	for _, c := range class {
		allFree = allFree && c == Free
	}

	if !allFree {
		lf.Chains = bf.chains(body, class)
	}
	if bf.guards {
		lf.Early = bf.earlyPoints(body, class)
	}

	// The registers the two slices exchange: what a Carried instruction
	// reads of the free and per-iteration registers (Win), and what the
	// other instructions — and the scratch reductions, which run over a
	// whole tile — read of those defined before the loop (Spread). A
	// register enters its list at its first such read: regRead is dropped
	// as the marker, nothing below needs it. The four lists are carved out
	// of one backing once their lengths are known.
	const isWin, isFloat = 1 << 30, 1 << 29
	var found []kernel.Reg // the register, tagged with its list
	var foundBuf [16]kernel.Reg
	found = foundBuf[:0]
	var counts [4]int
	for i := 0; i < len(body) && (!allFree || bf.readsOuter); i++ {
		uses, n := body[i].Uses()
		for _, u := range uses[:n] {
			m := &bf.regs[fileOf(u.Float)][u.R]
			if *m&regRead == 0 || *m&regCarried != 0 {
				continue
			}
			inBody := *m&regBody != 0 || perIteration(u)
			if (class[i] == Carried) != inBody && (inBody || !inChain(lf.Chains, i)) {
				continue // the other slice may still read it
			}
			*m &^= regRead
			tag := kernel.Reg(0)
			if inBody {
				tag |= isWin
			}
			if u.Float {
				tag |= isFloat
			}
			found = append(found, u.R|tag)
			counts[tag>>29]++
		}
	}
	if len(found) > 0 {
		at := len(bf.lists)
		bf.lists = append(bf.lists, make([]kernel.Reg, len(found))...)
		var into [4][]kernel.Reg
		for which, n := range counts {
			into[which] = bf.lists[at : at : at+n]
			at += n
		}
		for _, r := range found {
			into[r>>29] = append(into[r>>29], r&^(isWin|isFloat))
		}
		lf.Spread, lf.Win = [2][]kernel.Reg{into[0], into[1]}, [2][]kernel.Reg{into[2], into[3]}
	}
	lf.Independent = allFree && !scratch // and reads nothing but RegGID from before the loop: BatchFacts

	for file := range bf.regs {
		for r := range bf.regs[file] {
			bf.regs[file][r] &^= regLoop
		}
	}
	return lf
}

// chains returns the scratch reductions of a classified loop body when they
// are all its Carried slice holds (LoopFacts.Chains), else nil. It reads the
// marks tile leaves: regDef for what the loop's entry sees, the per-body
// marks for the rest.
func (bf *batchFacts) chains(body []kernel.Instr, class []Class) []Chain {
	carried := 0
	for _, c := range class {
		if c == Carried {
			carried++
		}
	}
	if carried%3 != 0 {
		return nil
	}
	// once: defined in the body only, and once; read at most once there.
	once := func(r kernel.Reg, flt bool) bool {
		return bf.regs[fileOf(flt)][r]&(regDef|regBody|regMulti|regReread) == regBody
	}
	free := func(r kernel.Reg, flt bool) bool { return bf.regs[fileOf(flt)][r]&regCarried == 0 }
	chains := make([]Chain, 0, carried/3)
	for s := range body {
		st := &body[s]
		if st.Op != kernel.IStoreLoc {
			continue
		}
		flt := st.Float
		o := defBefore(body, s, st.B, flt)
		if o < 0 || flt != bf.localsFloat || !once(st.B, flt) || !free(st.A, false) {
			return nil
		}
		op := &body[o]
		switch op.BOp {
		case kernel.BAdd, kernel.BSub, kernel.BMul, kernel.BMin, kernel.BMax:
		default:
			return nil
		}
		if op.Op != kernel.IBin || op.Float != flt || op.B == op.A || !once(op.A, flt) || !free(op.B, flt) {
			return nil
		}
		ld := defBefore(body, o, op.A, flt)
		if ld < 0 || body[ld].Op != kernel.ILoadLoc || body[ld].A != st.A ||
			class[ld] != Carried || class[o] != Carried || class[s] != Carried {
			return nil
		}
		chains = append(chains, Chain{Load: ld, Op: o, Store: s})
	}
	if len(chains) == 0 || 3*len(chains) != carried {
		return nil // something else is Carried as well
	}
	return chains
}

// earlyMin is how many non-constant instructions must lie between a
// conjunct's definition and its guard for the conjunct to get a guard of its
// own in the tiles: below it, one guard over the whole predicate (a
// one-column range test, a scatter's bounds check) costs less than two.
const earlyMin = 4

// pendingLoad is a load with a proven index that earlyPoints has passed since
// the last instruction no window may hold: its body index and what its proof
// needs of the buffer.
type pendingLoad struct {
	at   int
	need Need
}

// earlyPoints finds the early points of one classified loop body
// (LoopFacts.Early) in one scan, and adds what they need of the buffers to
// bf.needs. A guard's operand is an and-tree — an integer and is zero when
// either operand is — whose leaves are its conjuncts. A lane whose conjunct
// is zero fails the guard, so the tiles may drop it as soon as the conjunct
// is defined, and it skips the instructions up to the guard: the window.
// That is unobservable only when every instruction of the window is Free and
// cannot fault on a lane it no longer runs for: no guard, store or scratch
// access, no div or mod, no float operator fbin refuses, and every load has
// a proven index — RegIdx, when N is positive (its buffer must hold N
// slots), or sel(c, x, k) where c's and-tree holds valid buf[x] of the buffer
// loaded and k is a constant ≥ 0 (the buffer must hold more than k). The
// guard must be in the wide slice, and the conjunct defined once in the body,
// by a Free instruction, with more than earlyMin non-constant instructions in
// its window.
func (bf *batchFacts) earlyPoints(body []kernel.Instr, class []Class) []Early {
	if bf.at == nil {
		bf.at = make([]int32, 3*len(bf.regs[0]))
	}
	base := bf.base
	bf.base += int32(len(body))
	from := len(bf.early)
	bad, work := -1, int32(0) // the last instruction no window may hold; non-constant instructions so far
	pend := bf.pendBuf[:0]
	for i := range body {
		in := &body[i]
		ok := class[i] == Free
		switch in.Op {
		case kernel.IGuard:
			if ok {
				start := len(bf.early)
				for _, c := range bf.conjuncts(body, in.A, base) {
					p := bf.once(c, base)
					if p < 0 || p < bad || class[p] != Free || work-bf.at[3*c+1] <= earlyMin {
						continue
					}
					bf.early = append(bf.early, Early{At: p, Reg: c})
					for _, ld := range pend {
						if ld.at > p {
							bf.needs = addNeed(bf.needs, ld.need)
						}
					}
				}
				// Program order: insertion-sort what this guard added.
				for j := start + 1; j < len(bf.early); j++ {
					for k := j; k > start && bf.early[k].At < bf.early[k-1].At; k-- {
						bf.early[k], bf.early[k-1] = bf.early[k-1], bf.early[k]
					}
				}
			}
			ok = false
		case kernel.IStore, kernel.ILoadLoc, kernel.IStoreLoc:
			ok = false
		case kernel.IBin:
			ok = ok && total(in)
		case kernel.ILoad:
			if ok {
				var need Need
				if need, ok = bf.proven(body, in, base); ok {
					pend = append(pend, pendingLoad{at: i, need: need})
				}
			}
		}
		if !ok {
			bad, pend = i, pend[:0]
		}
		if in.Op != kernel.IConstI && in.Op != kernel.IConstF {
			work++
		}
		if r, flt, has := in.Def(); has && !flt {
			bf.at[3*r], bf.at[3*r+1] = base+int32(i)+1, work
		}
	}
	if from == len(bf.early) {
		return nil
	}
	return bf.early[from:len(bf.early):len(bf.early)]
}

// once returns the body index of integer register r's one definition in the
// body being scanned so far, or -1 when it has none there or more.
func (bf *batchFacts) once(r kernel.Reg, base int32) int {
	if v := bf.at[3*r]; v > base && bf.regs[0][r]&regMulti == 0 {
		return int(v - base - 1)
	}
	return -1
}

// conjuncts returns the leaves of r's and-tree, each once: the tree descends
// through integer ands defined once in the body scanned so far.
func (bf *batchFacts) conjuncts(body []kernel.Instr, r kernel.Reg, base int32) []kernel.Reg {
	bf.stamp++
	return bf.leaves(body, r, base, bf.leafBuf[:0])
}

// leaves appends to out the leaves of r's and-tree the current walk has not
// reached yet.
func (bf *batchFacts) leaves(body []kernel.Instr, r kernel.Reg, base int32, out []kernel.Reg) []kernel.Reg {
	if bf.at[3*r+2] == bf.stamp {
		return out
	}
	bf.at[3*r+2] = bf.stamp
	if d := bf.once(r, base); d >= 0 && body[d].Op == kernel.IBin && !body[d].Float && body[d].BOp == kernel.BAnd {
		return bf.leaves(body, body[d].B, base, bf.leaves(body, body[d].A, base, out))
	}
	return append(out, r)
}

// proven reports whether load in of the body being scanned reads in range on
// every lane, and what that needs of its buffer (earlyPoints).
func (bf *batchFacts) proven(body []kernel.Instr, in *kernel.Instr, base int32) (Need, bool) {
	need := Need{Buf: in.Buf, Slots: bf.n, Float: in.Float}
	if in.A == kernel.RegIdx {
		return need, bf.n > 0
	}
	s := bf.once(in.A, base)
	if s < 0 || body[s].Op != kernel.ISel || body[s].Float || bf.regs[0][body[s].B]&regMulti != 0 {
		return need, false
	}
	sel := &body[s]
	k := bf.once(sel.C, base)
	if k < 0 || body[k].Op != kernel.IConstI || body[k].Imm < 0 || body[k].Imm >= math.MaxInt32 {
		return need, false
	}
	need.Slots = int(body[k].Imm) + 1
	for _, c := range bf.conjuncts(body, sel.A, base) {
		if v := bf.once(c, base); v >= 0 && body[v].Op == kernel.ILoadValid && body[v].Buf == in.Buf && body[v].A == sel.B {
			return need, true
		}
	}
	return need, false
}

// total reports whether an IBin returns a value for every pair of operands,
// as ibin and fbin compute it: no division, no modulo, no operator the
// domain lacks.
func total(in *kernel.Instr) bool {
	switch in.BOp {
	case kernel.BAdd, kernel.BSub, kernel.BMul, kernel.BGt, kernel.BGe, kernel.BEq, kernel.BMin, kernel.BMax:
		return true
	case kernel.BShl, kernel.BAnd, kernel.BOr:
		return !in.Float
	}
	return false
}

// addNeed adds n to needs, keeping one entry per buffer and domain.
func addNeed(needs []Need, n Need) []Need {
	for i := range needs {
		if needs[i].Buf == n.Buf && needs[i].Float == n.Float {
			needs[i].Slots = max(needs[i].Slots, n.Slots)
			return needs
		}
	}
	return append(needs, n)
}

// inChain reports whether instruction i is a step of one of the chains.
func inChain(chains []Chain, i int) bool {
	for _, c := range chains {
		if c.Load == i || c.Op == i || c.Store == i {
			return true
		}
	}
	return false
}

// defBefore returns the index of the last instruction ahead of at that
// defines r in the given file, or -1.
func defBefore(body []kernel.Instr, at int, r kernel.Reg, flt bool) int {
	for i := at - 1; i >= 0; i-- {
		if d, f, ok := body[i].Def(); ok && d == r && f == flt {
			return i
		}
	}
	return -1
}

// newBatchFacts sets up the walk over f.
func newBatchFacts(f *kernel.Fragment) *batchFacts {
	n := f.NumRegs()
	marks := make([]uint8, 2*n)
	bf := &batchFacts{regs: [2][]uint8{marks[:n], marks[n:]}, localsFloat: f.LocalsFloat, n: f.N}
	bf.undo, bf.lists = bf.undoBuf[:0], bf.listBuf[:0]
	bf.loaded, bf.stored = bf.loadBuf[:0], bf.stBuf[:0]
	bf.early, bf.needs = bf.earlyBuf[:0], bf.needBuf[:0]
	return bf
}

// walk checks f against the fragment contract and returns the first rule
// it breaks, positioned, or nil. With loops set it also appends the tiling
// facts of every loop body to *loops; the contract depends on nothing tile
// decides, so the verifier walks without.
//
// The contract is what lets a fragment's work items run in any order, on
// any worker, as tiles: every register read — a loop's BoundReg included —
// is dominated by a definition inside its own work item (VF001), and no
// buffer is both loaded and stored (VF010). Dominance follows the work
// item's control flow: the prologue runs once, every loop may run zero
// times and a guard may cut any sequence short, so a loop body sees the
// prologue's definitions plus its own earlier ones, the epilogue the
// prologue's plus its own, the post-loop body those plus its own. RegGID is
// defined throughout, RegIV and RegIdx inside loop bodies only (afterwards
// they hold whatever the last iteration of any work item left), RegJ inside
// the post-loop body only. Opcodes the executor does not know, negative
// operands (VF011) and writes to a special register (VF002) stop the walk
// as well.
func (bf *batchFacts) walk(f *kernel.Fragment, loops *[]LoopFacts) *Diagnostic {
	at := func(d *Diagnostic, section string) *Diagnostic {
		d.Pos.Frag, d.Pos.Section = f.Name, section
		return d
	}
	ints := bf.regs[0]
	for _, r := range [...]kernel.Reg{kernel.RegGID, kernel.RegIV, kernel.RegIdx, kernel.RegJ} {
		ints[r] |= regUsed
	}
	ints[kernel.RegGID] |= regDef
	if d := bf.section(f.Pre, false); d != nil {
		return at(d, "pre")
	}
	for li, l := range f.Loops {
		// The bound is read at loop entry, where only the prologue's
		// definitions stand.
		if l.BoundReg > 0 && ints[l.BoundReg]&regDef == 0 {
			return at(breaks(-1, RuleUseBeforeDef,
				"dynamic bound register r%d has no definition in its own work item at loop entry", l.BoundReg),
				fmt.Sprintf("loop%d", li))
		}
		ints[kernel.RegIV] |= regDef
		ints[kernel.RegIdx] |= regDef
		d := bf.section(l.Body, true)
		ints[kernel.RegIV] &^= regDef
		ints[kernel.RegIdx] &^= regDef
		if d != nil {
			return at(d, fmt.Sprintf("loop%d", li))
		}
		if loops != nil {
			*loops = append(*loops, bf.tile(l.Body))
		}
	}
	if d := bf.section(f.Post, false); d != nil {
		return at(d, "post")
	}
	ints[kernel.RegJ] |= regDef
	if d := bf.section(f.PostLoopBody, true); d != nil {
		return at(d, "postloop")
	}
	if loops != nil && len(f.PostLoopBody) > 0 {
		*loops = append(*loops, bf.tile(f.PostLoopBody))
	}
	for _, b := range bf.stored {
		if hasBuf(bf.loaded, b) {
			// Tiles run ahead of the interpreter's element-major order, and
			// workers ahead of each other, so a load could observe a store
			// it has not made yet.
			return at(breaks(-1, RuleRWOverlap, "buffer %d is both loaded and stored in this fragment", b), "")
		}
	}
	return nil
}

// BatchFacts checks one fragment against the fragment contract (walk) and,
// when it meets it, computes the facts the batch tier runs it from.
func BatchFacts(f *kernel.Fragment) Facts {
	bf := newBatchFacts(f)
	bodies := len(f.PostLoopBody)
	for _, l := range f.Loops {
		bodies += len(l.Body)
	}
	bf.classes = make([]Class, 0, bodies)
	loops := make([]LoopFacts, 0, len(f.Loops)+1)
	if d := bf.walk(f, &loops); d != nil {
		return Facts{Violation: d}
	}
	// Now that every definition has been seen: a hoisted constant is the
	// same in every row and every window, so no slice needs it moved.
	for li := range loops {
		lf := &loops[li]
		for file := range lf.Win {
			lf.Win[file] = bf.dropKonst(lf.Win[file], file)
			lf.Spread[file] = bf.dropKonst(lf.Spread[file], file)
		}
		onlyGID := len(lf.Spread[1]) == 0 && (len(lf.Spread[0]) == 0 || (len(lf.Spread[0]) == 1 && lf.Spread[0][0] == kernel.RegGID))
		lf.Independent = lf.Independent && onlyGID
	}
	facts := Facts{Loops: loops, Needs: bf.needs, regs: bf.regs}
	for file, list := range [...]*[]kernel.Reg{&facts.IntRegs, &facts.FltRegs} {
		used := 0
		for _, m := range bf.regs[file] {
			used += int(m & regUsed / regUsed)
		}
		*list = make([]kernel.Reg, 0, used)
		for r, m := range bf.regs[file] {
			if m&regUsed != 0 {
				*list = append(*list, kernel.Reg(r))
			}
		}
	}
	return facts
}

// dropKonst removes the hoistable constants from list, in place.
func (bf *batchFacts) dropKonst(list []kernel.Reg, file int) []kernel.Reg {
	keep := list[:0]
	for _, r := range list {
		if bf.regs[file][r]&regKonst == 0 {
			keep = append(keep, r)
		}
	}
	return keep
}
