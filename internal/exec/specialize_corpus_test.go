package exec_test

import (
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/difftest"
	"voodoo/internal/verify"
)

// TestCompilerFragmentsBatch sweeps the difftest corpus through the
// compiler under the fragment-shaping option combos and pins what
// verify.BatchFacts decides about what comes out: every fragment the
// compiler emits meets the fragment contract (VF001, VF002, VF010, VF011),
// and so batches. None of the contract's rules is about a fragment's
// geometry, since a tile cuts work items × iterations whichever way the
// morsel offers them. It also requires the corpus to exercise every class
// of the tiling facts.
func TestCompilerFragmentsBatch(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 50
	}
	frags := 0
	classes := map[verify.Class]int{}
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
				if facts.Violation != nil {
					t.Fatalf("seed %d: %v; every compiler-emitted fragment meets the contract\n%s",
						seed, facts.Violation, plan.Kernel())
				}
				for _, l := range facts.Loops {
					for _, c := range l.Class {
						classes[c]++
					}
				}
			}
		}
	}
	t.Logf("%d fragments, all meeting the contract; loop instructions free/carried/reduce = %d/%d/%d",
		frags, classes[verify.Free], classes[verify.Carried], classes[verify.Reduce])
	if frags < 100 || classes[verify.Free] == 0 || classes[verify.Carried] == 0 || classes[verify.Reduce] == 0 {
		t.Fatalf("%d fragments with free/carried/reduce = %d/%d/%d loop instructions: want a corpus with some of each",
			frags, classes[verify.Free], classes[verify.Carried], classes[verify.Reduce])
	}
}
