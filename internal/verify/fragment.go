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
		for _, u := range in.Uses() {
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

// Facts are the fragment eligibility facts the executor's batch specializer
// consumes (exec.compileBatch). They mirror the specializer's historical
// eligibility rules exactly; the pinning test in package exec asserts the
// decisions are unchanged over the difftest corpus.
type Facts struct {
	// BatchEligible reports whether the fragment can run as batch
	// primitives: loop-bodies-only, one iteration per work item, straight
	// whitelisted instructions, strict per-body def-before-use, and
	// single-store/load-disjoint buffer access.
	BatchEligible bool
	// Reason explains ineligibility ("" when eligible).
	Reason string
	// IntRegs/FltRegs list the registers needing a column in each file,
	// ascending; NRegs bounds both index spaces.
	IntRegs []kernel.Reg
	FltRegs []kernel.Reg
	NRegs   int
}

// ineligible builds the not-eligible result.
func ineligible(reason string) Facts { return Facts{Reason: reason} }

// BatchFacts computes the batch-specialization eligibility facts for one
// fragment. The rules are conservative: a rejected fragment simply
// interprets.
func BatchFacts(f *kernel.Fragment) Facts {
	// Whole-lane execution must reduce to the loop bodies: any per-item
	// prologue/epilogue or scratch array needs element-major order.
	if f.Locals != 0 || len(f.Pre) != 0 || len(f.Post) != 0 || len(f.PostLoopBody) != 0 {
		return ineligible("per-item prologue, epilogue or scratch array")
	}
	if len(f.Loops) == 0 {
		return ineligible("no loops")
	}
	// Each loop must run exactly one iteration with idx == gid, so a batch
	// of consecutive gids is a batch of consecutive idxs.
	if f.Intent != 1 && !f.Strided {
		return ineligible("blocked index mapping with intent != 1")
	}
	for _, l := range f.Loops {
		if l.BoundReg > 0 {
			return ineligible("dynamic loop bound")
		}
		bound := l.Bound
		if bound <= 0 {
			bound = f.Intent
		}
		if bound != 1 {
			return ineligible("loop iterates more than once per work item")
		}
	}
	usedI := map[kernel.Reg]bool{kernel.RegGID: true, kernel.RegIV: true, kernel.RegIdx: true}
	usedF := map[kernel.Reg]bool{}
	loaded := map[int]bool{}
	stored := map[int]bool{}
	for _, l := range f.Loops {
		// Registers may not carry values across work items: the
		// interpreter's register file persists across gids, so a read
		// before a definition (within this loop body) would observe a
		// sibling item's leftovers and diverge. Specials are defined by
		// the batch prologue.
		defI := map[kernel.Reg]bool{kernel.RegGID: true, kernel.RegIV: true, kernel.RegIdx: true}
		defF := map[kernel.Reg]bool{}
		for _, in := range l.Body {
			switch in.Op {
			case kernel.IConstI, kernel.IConstF, kernel.IMov, kernel.IBin, kernel.ISel,
				kernel.ILoad, kernel.ILoadValid, kernel.IStore, kernel.IGuard,
				kernel.ICastIF, kernel.ICastFI:
			default:
				return ineligible("opcode outside the batch vocabulary") // locals and unknown opcodes stay interpreted
			}
			for _, u := range in.Uses() {
				if u.R < 0 {
					return ineligible("negative register operand")
				}
				if u.Float {
					if !defF[u.R] {
						return ineligible("register value carried across work items")
					}
				} else if !defI[u.R] {
					return ineligible("register value carried across work items")
				}
			}
			switch in.Op {
			case kernel.ILoad, kernel.ILoadValid:
				if stored[in.Buf] {
					return ineligible("load after store of the same buffer")
				}
				loaded[in.Buf] = true
			case kernel.IStore:
				if stored[in.Buf] || loaded[in.Buf] {
					return ineligible("store overlaps an earlier access of the same buffer")
				}
				stored[in.Buf] = true
			}
			if r, flt, ok := in.Def(); ok {
				if r < kernel.FirstFree {
					return ineligible("writes a special register")
				}
				if flt {
					defF[r], usedF[r] = true, true
				} else {
					defI[r], usedI[r] = true, true
				}
			}
		}
	}
	fa := Facts{BatchEligible: true}
	for r := range usedI {
		fa.IntRegs = append(fa.IntRegs, r)
		if int(r)+1 > fa.NRegs {
			fa.NRegs = int(r) + 1
		}
	}
	for r := range usedF {
		fa.FltRegs = append(fa.FltRegs, r)
		if int(r)+1 > fa.NRegs {
			fa.NRegs = int(r) + 1
		}
	}
	sort.Slice(fa.IntRegs, func(i, j int) bool { return fa.IntRegs[i] < fa.IntRegs[j] })
	sort.Slice(fa.FltRegs, func(i, j int) bool { return fa.FltRegs[i] < fa.FltRegs[j] })
	return fa
}
