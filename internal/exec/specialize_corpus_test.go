package exec_test

import (
	"sort"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/difftest"
	"voodoo/internal/verify"
)

// TestCompilerFragmentsBatch sweeps the difftest corpus through the
// compiler under the fragment-shaping option combos and pins what
// verify.BatchFacts decides about what comes out. Results cannot show a
// fragment silently falling back to the interpreter — the tiers are
// bit-identical — so this is where an eligibility rule turning too strict
// fails: every fragment is either eligible or rejected for one of the
// reasons that remain, and most are eligible.
func TestCompilerFragmentsBatch(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 50
	}
	known := map[string]bool{
		"fewer than 4 work items to run as lanes":                        true,
		"buffer both loaded and stored":                                  true,
		"register read without a dominating definition in its work item": true,
	}
	frags, eligible, recut := 0, 0, 0
	rejects := map[string]int{}
	for seed := int64(1); seed <= seeds; seed++ {
		p := difftest.Generate(seed)
		for _, opt := range []compile.Options{{}, {Predication: true}} {
			plan, err := compile.Compile(p.Prog, p.St, opt)
			if err != nil {
				continue
			}
			for _, f := range plan.Kernel().Frags {
				frags++
				facts := verify.BatchFacts(f)
				switch {
				case facts.BatchEligible:
					eligible++
					if facts.Recut {
						recut++
					}
				case !known[facts.Reason]:
					t.Fatalf("seed %d frag %s: rejected for %q, not a reason the batch tier still has\n%s",
						seed, f.Name, facts.Reason, plan.Kernel())
				default:
					rejects[facts.Reason]++
				}
			}
		}
	}
	reasons := make([]string, 0, len(rejects))
	for r := range rejects {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		t.Logf("reject %4d  %s", rejects[r], r)
	}
	t.Logf("%d fragments: %d eligible (%d re-cut)", frags, eligible, recut)
	if frags < 100 || eligible*2 < frags || recut == 0 {
		t.Fatalf("%d of %d compiler fragments batch-eligible (%d re-cut): want at least half (the corpus is full of tiny vectors), and some of each kind", eligible, frags, recut)
	}
}
