package exec_test

import (
	"sort"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/difftest"
	"voodoo/internal/kernel"
	"voodoo/internal/verify"
)

// legacyBatchEligibility is a verbatim copy of the eligibility analysis
// compileBatch performed before the duplicated logic was deleted in favor
// of verify.BatchFacts. It pins that the verifier-computed facts make
// exactly the decisions the specializer historically made.
func legacyBatchEligibility(f *kernel.Fragment) (eligible bool, intRegs, fltRegs []kernel.Reg, nregs int) {
	if f.Locals != 0 || len(f.Pre) != 0 || len(f.Post) != 0 || len(f.PostLoopBody) != 0 {
		return false, nil, nil, 0
	}
	if len(f.Loops) == 0 {
		return false, nil, nil, 0
	}
	if f.Intent != 1 && !f.Strided {
		return false, nil, nil, 0
	}
	for _, l := range f.Loops {
		if l.BoundReg > 0 {
			return false, nil, nil, 0
		}
		bound := l.Bound
		if bound <= 0 {
			bound = f.Intent
		}
		if bound != 1 {
			return false, nil, nil, 0
		}
	}
	usedI := map[kernel.Reg]bool{kernel.RegGID: true, kernel.RegIV: true, kernel.RegIdx: true}
	usedF := map[kernel.Reg]bool{}
	loaded := map[int]bool{}
	stored := map[int]bool{}
	for _, l := range f.Loops {
		defI := map[kernel.Reg]bool{kernel.RegGID: true, kernel.RegIV: true, kernel.RegIdx: true}
		defF := map[kernel.Reg]bool{}
		for _, in := range l.Body {
			switch in.Op {
			case kernel.IConstI, kernel.IConstF, kernel.IMov, kernel.IBin, kernel.ISel,
				kernel.ILoad, kernel.ILoadValid, kernel.IStore, kernel.IGuard,
				kernel.ICastIF, kernel.ICastFI:
			default:
				return false, nil, nil, 0
			}
			for _, u := range in.Uses() {
				if u.R < 0 {
					return false, nil, nil, 0
				}
				if u.Float {
					if !defF[u.R] {
						return false, nil, nil, 0
					}
				} else if !defI[u.R] {
					return false, nil, nil, 0
				}
			}
			switch in.Op {
			case kernel.ILoad, kernel.ILoadValid:
				if stored[in.Buf] {
					return false, nil, nil, 0
				}
				loaded[in.Buf] = true
			case kernel.IStore:
				if stored[in.Buf] || loaded[in.Buf] {
					return false, nil, nil, 0
				}
				stored[in.Buf] = true
			}
			if r, flt, ok := in.Def(); ok {
				if r < kernel.FirstFree {
					return false, nil, nil, 0
				}
				if flt {
					defF[r], usedF[r] = true, true
				} else {
					defI[r], usedI[r] = true, true
				}
			}
		}
	}
	for r := range usedI {
		intRegs = append(intRegs, r)
		if int(r)+1 > nregs {
			nregs = int(r) + 1
		}
	}
	for r := range usedF {
		fltRegs = append(fltRegs, r)
		if int(r)+1 > nregs {
			nregs = int(r) + 1
		}
	}
	sort.Slice(intRegs, func(i, j int) bool { return intRegs[i] < intRegs[j] })
	sort.Slice(fltRegs, func(i, j int) bool { return fltRegs[i] < fltRegs[j] })
	return true, intRegs, fltRegs, nregs
}

func regsEqual(a, b []kernel.Reg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchFactsMatchLegacyEligibility sweeps the difftest corpus through
// the compiler under the fragment-shaping option combos and asserts
// verify.BatchFacts reproduces the legacy eligibility decision — and the
// derived register facts — for every generated fragment.
func TestBatchFactsMatchLegacyEligibility(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 50
	}
	opts := []compile.Options{{}, {Predication: true}}
	frags, eligibleFrags := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		p := difftest.Generate(seed)
		for _, opt := range opts {
			plan, err := compile.Compile(p.Prog, p.St, opt)
			if err != nil {
				continue
			}
			for _, f := range plan.Kernel().Frags {
				frags++
				facts := verify.BatchFacts(f)
				eligible, intRegs, fltRegs, nregs := legacyBatchEligibility(f)
				if facts.BatchEligible != eligible {
					t.Fatalf("seed %d frag %s: eligibility %v, legacy says %v (reason %q)\n%s",
						seed, f.Name, facts.BatchEligible, eligible, facts.Reason, plan.Kernel())
				}
				if !eligible {
					continue
				}
				eligibleFrags++
				if !regsEqual(facts.IntRegs, intRegs) || !regsEqual(facts.FltRegs, fltRegs) || facts.NRegs != nregs {
					t.Fatalf("seed %d frag %s: regs int=%v flt=%v n=%d, legacy int=%v flt=%v n=%d",
						seed, f.Name, facts.IntRegs, facts.FltRegs, facts.NRegs, intRegs, fltRegs, nregs)
				}
			}
		}
	}
	if frags < 100 || eligibleFrags == 0 {
		t.Fatalf("corpus too thin to pin eligibility: %d fragments, %d eligible", frags, eligibleFrags)
	}
	t.Logf("pinned %d fragments (%d batch-eligible)", frags, eligibleFrags)
}
