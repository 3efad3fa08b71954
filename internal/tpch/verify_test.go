package tpch

import (
	"context"
	"fmt"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/exec"
	"voodoo/internal/rel"
	"voodoo/internal/storage"
)

// verifyingRunner wraps an Engine so that the plan a query compiles passes
// through the static verifier before it executes, and fails on any
// diagnostic: a dead store (VP008) is waste the lowering must not make.
type verifyingRunner struct {
	t     *testing.T
	e     *rel.Engine
	plans int
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
			r.t.Errorf("query %q: %s", q.Name, d)
		}
	}
	return r.e.RunPrepared(context.Background(), pr)
}

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
				})
			}
		})
	}
}
