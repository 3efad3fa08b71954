package tpch

import (
	"context"
	"fmt"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/exec"
	"voodoo/internal/rel"
	"voodoo/internal/storage"
	"voodoo/internal/verify"
)

// verifyingRunner wraps an Engine so that the plan a query compiles passes
// through the static verifier before it executes. Dead stores
// (VP008, a warning) are counted rather than failed: they are waste, not a
// contract violation.
type verifyingRunner struct {
	t     *testing.T
	e     *rel.Engine
	plans int
	dead  int
}

func (r *verifyingRunner) Catalog() *storage.Catalog { return r.e.Cat }

func (r *verifyingRunner) Run(q rel.Query) (*rel.Result, *exec.Stats, error) {
	pr, err := r.e.Prepare(q)
	if err != nil {
		return nil, nil, err
	}
	if plan := pr.Plan(); plan != nil {
		r.plans++
		for _, d := range plan.Verify() {
			if d.Rule == verify.RuleDeadStore {
				r.dead++
				continue
			}
			r.t.Errorf("query %q: %s", q.Name, d)
		}
	}
	return r.e.RunPrepared(context.Background(), pr)
}

// deadStores pins, per TPC-H query, the buffers its compiled plans store and
// never read (VP008) — the materialization ROADMAP direction 1 is to remove:
// a spilled filter stores its predicate-only columns (Q4's l_commitdate and
// l_receiptdate), and
// a Partition's pivot list is materialized for a grouped fold that keeps it
// virtual (Q1's mat.p). A gather through a selection composes instead of
// materializing its source, so Q6 and Q19's filter-folds store nothing they
// do not read, and a filter whose rows reach only folds is read in place,
// storing nothing at all. A grouped fold stores its groups' row counts only
// where a result of it is expanded to the padded layout, which no query's
// is.
var deadStores = map[int]int{1: 1, 4: 3, 5: 4, 6: 0, 7: 5, 8: 6, 9: 5, 10: 2, 11: 2, 12: 2, 14: 2, 15: 1, 19: 1, 20: 3}

// TestGoldenPlansVerify compiles every TPC-H query under each compiled
// backend configuration and requires the verifier to accept every plan
// with no diagnostic but dead stores, whose count on the default engine is
// pinned. This is the "golden plans" half of the CI verification gate: the
// difftest corpus covers generated programs, this covers the hand-lowered
// relational workload.
func TestGoldenPlansVerify(t *testing.T) {
	engines := map[string]*rel.Engine{
		"compiled":        {Cat: testCat, Backend: rel.Compiled},
		"predicated":      {Cat: testCat, Backend: rel.Compiled, Opt: compile.Options{Predication: true}},
		"bulk":            {Cat: testCat, Backend: rel.BulkCompiled},
		"bulk-predicated": {Cat: testCat, Backend: rel.BulkCompiled, Opt: compile.Options{Predication: true}},
	}
	for name, e := range engines {
		e := e
		t.Run(name, func(t *testing.T) {
			for _, num := range QueryNumbers {
				t.Run(fmt.Sprintf("q%d", num), func(t *testing.T) {
					qf, err := Query(num)
					if err != nil {
						t.Fatal(err)
					}
					vr := &verifyingRunner{t: t, e: e}
					if _, _, err := qf(vr); err != nil {
						t.Fatalf("q%d: %v", num, err)
					}
					if vr.plans == 0 {
						t.Fatalf("q%d compiled no plans; the verifier saw nothing", num)
					}
					if name == "compiled" {
						if vr.dead != deadStores[num] {
							t.Errorf("q%d: %d dead stores, want %d", num, vr.dead, deadStores[num])
						}
					}
				})
			}
		})
	}
}
