package tpch

import (
	"fmt"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/rel"
)

// TestGoldenPlansVerify compiles every TPC-H query under each compiled
// backend configuration and requires the verifier to accept every plan
// with no diagnostic at all, not even a dead store: a spilled filter
// stores only the columns read above it, a join's build scatters its match
// flag only where a liveness column reads it, and a Partition's pivot list
// is stored only for a counting sort. This is the "golden plans" half of
// the CI verification gate: the difftest corpus covers generated programs,
// this covers the hand-lowered relational workload.
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
					q, err := Plan(num, testCat)
					if err != nil {
						t.Fatal(err)
					}
					pr, err := e.Prepare(q)
					if err != nil {
						t.Fatalf("q%d: %v", num, err)
					}
					// Any diagnostic fails: a dead store (VP008) is
					// waste the lowering must not make.
					for _, d := range pr.Plan().Verify() {
						t.Errorf("q%d: %s", num, d)
					}
				})
			}
		})
	}
}
