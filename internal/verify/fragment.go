// Fragment-level verification: register def-before-use with the executor's
// special-register contexts, buffer declaration consistency, loop-bound and
// geometry sanity, and an affine-index lattice that audits the compiler's
// sequential-vs-random access classification. The same analysis computes
// BatchFacts — the eligibility facts package exec's batch specializer
// consumes, making the verifier the single source of truth for
// specialization decisions.
package verify

import (
	"fmt"
	"sort"

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
// The def-before-use analysis models the executor's register contract
// exactly: the register file persists across work items within a worker, so
// a read with no prior definition observes a sibling item's leftovers and
// makes results depend on morsel boundaries. Special registers are defined
// contextually — RegGID from the work-item prologue on, RegIV/RegIdx once
// the first loop has started, RegJ only inside the post-loop body. Reads
// inside a loop body may see definitions from any point of the same body
// (loop-carried values are deterministic within one work item).
func Fragment(f *kernel.Fragment, bufs []kernel.BufDecl) []Diagnostic {
	v := &fragVerifier{f: f, bufs: bufs,
		defI:   map[kernel.Reg]bool{},
		defF:   map[kernel.Reg]bool{},
		cls:    map[kernel.Reg]affClass{},
		loads:  map[int]bool{},
		stores: map[int]bool{},
	}
	v.geometry()

	// RegGID is set before anything else runs. Affinity classes for all
	// specials are affine-in-the-index by construction.
	v.defI[kernel.RegGID] = true
	for _, r := range []kernel.Reg{kernel.RegGID, kernel.RegIV, kernel.RegIdx, kernel.RegJ} {
		v.cls[r] = affAffine
	}

	v.section("pre", f.Pre, false)
	for li, l := range f.Loops {
		name := fmt.Sprintf("loop%d", li)
		v.loopBound(name, l)
		// RegIV and RegIdx are (re)assigned by the loop machinery before
		// the body executes, and keep their last value afterwards.
		v.defI[kernel.RegIV], v.defI[kernel.RegIdx] = true, true
		v.section(name, l.Body, true)
	}
	v.section("post", f.Post, false)
	if len(f.PostLoopBody) > 0 {
		if f.Locals <= 0 {
			v.diags = errorf(v.diags, fpos(f.Name, "postloop", -1), RuleLocals,
				"post-loop body with no locals (Locals=%d): body never runs", f.Locals)
		}
		v.defI[kernel.RegJ] = true
		v.section("postloop", f.PostLoopBody, true)
	}

	// VF010: a fragment that both loads and stores the same buffer has an
	// instruction-order hazard the batch specializer must (and does)
	// reject; flag it for human attention even on the interpreted path.
	var overlap []int
	for b := range v.stores {
		if v.loads[b] {
			overlap = append(overlap, b)
		}
	}
	sort.Ints(overlap)
	for _, b := range overlap {
		v.diags = warnf(v.diags, fpos(f.Name, "", -1), RuleRWOverlap,
			"buffer %d is both loaded and stored in this fragment", b)
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

	defI, defF map[kernel.Reg]bool
	cls        map[kernel.Reg]affClass

	loads, stores map[int]bool
}

func (v *fragVerifier) class(r kernel.Reg) affClass {
	if r < 0 {
		return affOther
	}
	if c, ok := v.cls[r]; ok {
		return c
	}
	// Never-defined registers read as zero or leftovers; either way the
	// value is not affine in the index. Def-before-use reports the real
	// problem separately.
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

// loopBound checks one loop's bound fields (VF007). Dynamic bound registers
// are read once per work item before the first iteration, so they must be
// integer-defined by the preceding sections.
func (v *fragVerifier) loopBound(name string, l kernel.Loop) {
	pos := fpos(v.f.Name, name, -1)
	if l.Bound < 0 {
		v.diags = errorf(v.diags, pos, RuleLoopBound, "negative loop bound %d", l.Bound)
	}
	if l.BoundReg > 0 && l.BoundReg < kernel.FirstFree {
		v.diags = errorf(v.diags, pos, RuleLoopBound,
			"dynamic bound register r%d is a reserved special", l.BoundReg)
	} else if l.BoundReg >= kernel.FirstFree && !v.defI[l.BoundReg] {
		v.diags = errorf(v.diags, pos, RuleLoopBound,
			"dynamic bound register r%d read before any definition", l.BoundReg)
	}
}

// section runs the def-before-use and structural checks over one
// instruction sequence, then the affinity passes with Seq auditing.
// loopBody marks sections that repeat per iteration, where a read may see a
// definition from a later instruction of the previous iteration.
func (v *fragVerifier) section(name string, body []kernel.Instr, loopBody bool) {
	if len(body) == 0 {
		return
	}
	f := v.f

	// Loop-carried definitions: anything defined somewhere in this body is
	// visible to every read of the body from the second iteration on, and
	// deterministic for the first (the executor zero-fills fresh register
	// files and the compiler's shapes define before first read anyway —
	// strictness here belongs to the batch specializer, see BatchFacts).
	bodyDefI := map[kernel.Reg]bool{}
	bodyDefF := map[kernel.Reg]bool{}
	if loopBody {
		for _, in := range body {
			if r, flt, ok := in.Def(); ok && r >= 0 {
				if flt {
					bodyDefF[r] = true
				} else {
					bodyDefI[r] = true
				}
			}
		}
	}

	for i, in := range body {
		pos := fpos(f.Name, name, i)
		if in.Op > kernel.IStoreLoc {
			v.diags = errorf(v.diags, pos, RuleBadInstr, "unknown opcode %d", in.Op)
			continue
		}
		uses, nuses := in.Uses()
		for _, u := range uses[:nuses] {
			if u.R < 0 {
				v.diags = errorf(v.diags, pos, RuleBadInstr,
					"%s reads negative register r%d", in, u.R)
				continue
			}
			defined := false
			if u.Float {
				defined = v.defF[u.R] || bodyDefF[u.R]
			} else {
				defined = v.defI[u.R] || bodyDefI[u.R]
			}
			if !defined {
				v.diags = errorf(v.diags, pos, RuleUseBeforeDef,
					"%s reads r%d before any definition", in, u.R)
			}
		}

		switch in.Op {
		case kernel.ILoad, kernel.ILoadValid, kernel.IStore:
			if in.Op == kernel.IStore {
				v.stores[in.Buf] = true
			} else {
				v.loads[in.Buf] = true
			}
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

		if r, flt, ok := in.Def(); ok {
			if r < kernel.FirstFree {
				v.diags = errorf(v.diags, pos, RuleSpecialWrite,
					"%s writes reserved register r%d", in, r)
			}
			if r >= 0 {
				if flt {
					v.defF[r] = true
				} else {
					v.defI[r] = true
				}
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

// MinLanes is the fewest lanes worth a batch: below it the per-primitive
// dispatch of the batch tier costs more than the per-element interpreter it
// replaces (measured on the TPC-H fragment shapes, see DESIGN.md §13).
const MinLanes = 4

// Facts are the fragment eligibility facts the executor's batch specializer
// consumes (exec.compileBatch). The batch tier runs a fragment with work
// items as lock-step lanes: register columns persist across the steps of a
// work item's loops, so the rules below are exactly what makes that
// reordering — step-major across the lanes of a batch instead of
// element-major — unobservable.
type Facts struct {
	// BatchEligible reports whether the fragment can run as batch
	// primitives: whitelisted opcodes, every register read dominated by a
	// definition inside its own work item, no buffer both loaded and
	// stored, and enough lanes to be worth batching.
	BatchEligible bool
	// Reason explains ineligibility ("" when eligible).
	Reason string
	// Recut marks a carry-free blocked fragment (no prologue, epilogue or
	// scratch array, every loop running the full Intent, one store
	// instruction per buffer): its iterations are independent, so the batch
	// tier runs them as Extent·Intent lanes of one step each, in element
	// order, instead of Extent lanes of Intent steps.
	Recut bool
	// IntRegs/FltRegs list the registers needing a column in each file,
	// ascending.
	IntRegs []kernel.Reg
	FltRegs []kernel.Reg
}

// ineligible builds the not-eligible result.
func ineligible(reason string) Facts { return Facts{Reason: reason} }

// regList returns the members of a register set in ascending order.
func regList(set []bool) []kernel.Reg {
	var out []kernel.Reg
	for r, in := range set {
		if in {
			out = append(out, kernel.Reg(r))
		}
	}
	return out
}

// batchFacts is the walk BatchFacts makes over a fragment. def holds, per
// register file, the registers a definition dominates at the instruction
// being checked; used those any instruction defines (they need a column).
// Both are indexed by register; index 0 is the integer file, 1 the float
// file.
type batchFacts struct {
	def, used [2][]bool
	// undo lists the definitions to retract when the current sequence
	// ends: those of a loop or post-loop body, and those behind a guard.
	undo           []kernel.RegUse
	loaded, stored map[int]bool
	multiStore     bool // some buffer is the target of two store instructions
}

func fileOf(float bool) int {
	if float {
		return 1
	}
	return 0
}

// section checks one instruction sequence against the definitions that
// dominate its entry and returns the first rule it fails. A guard may leave
// the sequence early, so only the definitions ahead of its first guard
// still dominate once it ends — and none of them when scoped, for a body
// that may run zero times.
func (bf *batchFacts) section(body []kernel.Instr, scoped bool) (reason string) {
	for _, ins := range body {
		switch ins.Op {
		case kernel.IConstI, kernel.IConstF, kernel.IMov, kernel.IBin, kernel.ISel,
			kernel.ILoad, kernel.ILoadValid, kernel.IStore, kernel.IGuard,
			kernel.ICastIF, kernel.ICastFI, kernel.ILoadLoc, kernel.IStoreLoc:
		default:
			return "opcode outside the batch vocabulary"
		}
		uses, n := ins.Uses()
		for _, u := range uses[:n] {
			if u.R < 0 {
				return "negative register operand"
			}
			if !bf.def[fileOf(u.Float)][u.R] {
				// The interpreter's register file persists across work
				// items, so such a read observes a sibling item's leftovers
				// (a loop that ran zero times, a guard that skipped the
				// definition); a lane's column holds something else.
				return "register read without a dominating definition in its work item"
			}
		}
		switch ins.Op {
		case kernel.ILoad, kernel.ILoadValid:
			bf.loaded[ins.Buf] = true
		case kernel.IStore:
			if bf.stored[ins.Buf] {
				bf.multiStore = true
			}
			bf.stored[ins.Buf] = true
		case kernel.IGuard:
			scoped = true
		}
		if r, flt, ok := ins.Def(); ok {
			if r < kernel.FirstFree {
				return "writes a special register"
			}
			file := fileOf(flt)
			bf.used[file][r] = true
			if !bf.def[file][r] {
				bf.def[file][r] = true
				if scoped {
					bf.undo = append(bf.undo, kernel.RegUse{R: r, Float: flt})
				}
			}
		}
	}
	for _, u := range bf.undo {
		bf.def[fileOf(u.Float)][u.R] = false
	}
	bf.undo = bf.undo[:0]
	return ""
}

// BatchFacts computes the batch-specialization eligibility facts for one
// fragment, returning the first rule it fails. The rules are conservative:
// a rejected fragment simply interprets.
//
// Dominance follows the work item's control flow: the prologue runs once,
// every loop may run zero times and a guard may cut any sequence short, so
// a loop body sees the prologue's definitions plus its own earlier ones,
// the epilogue the prologue's plus its own, the post-loop body those plus
// its own. RegGID is defined throughout, RegIV and RegIdx inside loop bodies
// only (afterwards they hold whatever the last iteration of any work item
// left), RegJ inside the post-loop body only.
func BatchFacts(f *kernel.Fragment) Facts {
	n := f.NumRegs()
	flags := make([]bool, 4*n)
	bf := &batchFacts{
		def:    [2][]bool{flags[:n], flags[n : 2*n]},
		used:   [2][]bool{flags[2*n : 3*n], flags[3*n:]},
		loaded: map[int]bool{}, stored: map[int]bool{},
	}
	defI, usedI := bf.def[0], bf.used[0]
	usedI[kernel.RegGID], usedI[kernel.RegIV], usedI[kernel.RegIdx], usedI[kernel.RegJ] = true, true, true, true
	defI[kernel.RegGID] = true
	if reason := bf.section(f.Pre, false); reason != "" {
		return ineligible(reason)
	}
	recut := !f.Strided && f.Intent > 1 && f.Locals == 0 &&
		len(f.Pre) == 0 && len(f.Post) == 0 && len(f.PostLoopBody) == 0
	for _, l := range f.Loops {
		// The bound is read at loop entry, where only the prologue's
		// definitions stand.
		if l.BoundReg > 0 && !defI[l.BoundReg] {
			return ineligible("register read without a dominating definition in its work item")
		}
		if l.BoundReg > 0 || (l.Bound > 0 && l.Bound != f.Intent) {
			recut = false
		}
		defI[kernel.RegIV], defI[kernel.RegIdx] = true, true
		reason := bf.section(l.Body, true)
		defI[kernel.RegIV], defI[kernel.RegIdx] = false, false
		if reason != "" {
			return ineligible(reason)
		}
	}
	if reason := bf.section(f.Post, false); reason != "" {
		return ineligible(reason)
	}
	defI[kernel.RegJ] = true
	if reason := bf.section(f.PostLoopBody, true); reason != "" {
		return ineligible(reason)
	}
	for b := range bf.stored {
		if bf.loaded[b] {
			// Lanes run step-major, so a load could observe a store the
			// interpreter's element-major order has not made yet.
			return ineligible("buffer both loaded and stored")
		}
	}
	// Two store instructions into one buffer keep their order within a work
	// item, not across the elements a re-cut spreads over lanes.
	recut = recut && !bf.multiStore
	lanes := f.Extent
	if recut {
		lanes *= f.Intent
	}
	if lanes < MinLanes {
		return ineligible(fmt.Sprintf("fewer than %d work items to run as lanes", MinLanes))
	}
	return Facts{BatchEligible: true, Recut: recut, IntRegs: regList(bf.used[0]), FltRegs: regList(bf.used[1])}
}
