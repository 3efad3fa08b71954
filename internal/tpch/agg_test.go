package tpch

import (
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/rel"
	"voodoo/internal/trace"
)

// TestGroupedFoldsUpdateWide: every table update of every TPC-H grouped fold
// is a scratch reduction (verify.LoopFacts.Chains) — no key-recovery min, no
// select on a count — and the batch tier runs them a tile at a time in 100 %
// of the tiles, on one worker and cut over two. Q1 computes its eight SQL
// aggregates in 7 folds: a Sum, a Count and the group id shared where the
// parent lowering folded 13 times; and as its seven inputs are ε alike they
// share one count, so its 7 groups take 7 × (7 sums + 1 count) = 56 slots
// per work item where the parent's took 13 × 14 + 7; it counts no
// occupancy, which only a result expanded to the padded layout reads.
func TestGroupedFoldsUpdateWide(t *testing.T) {
	checked := 0
	for _, num := range QueryNumbers {
		qf, err := Query(num)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			folds := map[string]int{} // the group-fold fragments of the plan about to run → their folds
			e := &rel.Engine{Cat: cutCat(), Backend: rel.Compiled, Opt: compile.Options{Workers: workers}}
			e.PlanSink = func(p *compile.Plan) {
				clear(folds)
				for _, f := range p.Kernel().Frags {
					if f.Prov.Kind == "group-fold" {
						folds[f.Name] = len(f.Prov.Stmts) - 2 // beside the partition and the scatter
						if num == 1 && f.Locals != 56 {
							t.Errorf("q1 %s: %d scratch slots per work item, want 56", f.Name, f.Locals)
						}
					}
				}
			}
			e.TraceSink = func(tr *trace.Trace) {
				for _, s := range tr.Steps {
					n, ok := folds[s.Name]
					if !ok || s.Kind != trace.KindFragment {
						continue
					}
					checked++
					if s.AccWide == 0 || s.AccCarried != 0 {
						t.Errorf("%s %s workers=%d: table updates ran wide in %d of %d tiles, want all",
							queryName(num), s.Name, workers, s.AccWide, s.AccWide+s.AccCarried)
					}
					if num == 1 && n != 7 {
						t.Errorf("q1 %s: %d folds, want 7", s.Name, n)
					}
				}
			}
			if _, _, err := qf(e); err != nil {
				t.Fatalf("%s workers=%d: %v", queryName(num), workers, err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no grouped fold ran")
	}
}
