package bench

import (
	"context"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/interp"
	"voodoo/internal/trace"
	"voodoo/internal/vector"
)

// fusionN is the fixed input size for the fusion-invariant tests. The
// pinned byte counts below are derived from it: buffers are sized by the
// plan shape, not the data, so the numbers are exact.
const fusionN = 4096

func fusionStorage(tb testing.TB) interp.MemStorage {
	tb.Helper()
	return interp.MemStorage{"facts": vector.New(fusionN).
		Set("v1", vector.NewFloat(uniformFloats(fusionN, 61))).
		Set("v2", vector.NewFloat(uniformFloats(fusionN, 62)))}
}

func tracedRun(t *testing.T, prog *core.Program, st interp.Storage, opt compile.Options) *trace.Trace {
	t.Helper()
	plan, err := compile.Compile(prog, st, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := plan.RunWith(context.Background(), compile.RunOpts{Trace: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.Trace
}

// pin is the set of trace totals a fusion test locks down.
type pin struct {
	fragments int
	bulkSteps int
	matBytes  int64
	foldRuns  int64
	scatters  int64
}

func checkPin(t *testing.T, name string, tr *trace.Trace, want pin) {
	t.Helper()
	if tr.Fragments != want.fragments {
		t.Errorf("%s: %d fragments, want %d — a fusion boundary moved", name, tr.Fragments, want.fragments)
	}
	if tr.BulkSteps != want.bulkSteps {
		t.Errorf("%s: %d bulk steps, want %d", name, tr.BulkSteps, want.bulkSteps)
	}
	if tr.MaterializedBytes != want.matBytes {
		t.Errorf("%s: materialized %d bytes, want %d — an intermediate (de)materialized", name, tr.MaterializedBytes, want.matBytes)
	}
	if tr.FoldRuns != want.foldRuns {
		t.Errorf("%s: %d fold runs, want %d", name, tr.FoldRuns, want.foldRuns)
	}
	if tr.ScatterItems != want.scatters {
		t.Errorf("%s: %d scatter items, want %d", name, tr.ScatterItems, want.scatters)
	}
}

// TestFig15FusionInvariants pins the plan shape of the three Figure 15
// selection strategies at n=4096, runLen=64. The paper's claim is
// structural — branch-free differs from branching by exactly one
// materialized full-size position buffer, and the vectorized variant
// fuses the whole pipeline into a single fragment — so the trace totals
// are exact constants:
//
//   - branching: 2 fragments; 4096·8 B padded select positions +
//     64·(8+1) B fold partials + (8+1) B global sum = 33353 B.
//   - branch-free: 3 fragments; the same plus the 4096·(8+1) B
//     materialized position buffer = 70217 B.
//   - vectorized: 1 fragment; positions stay run-local, only the padded
//     select buffer and the global sum reach memory = 32777 B.
//
// A change to fusion, empty-slot suppression, or buffer layout moves
// these numbers and must update them consciously.
func TestFig15FusionInvariants(t *testing.T) {
	st := fusionStorage(t)
	cases := []struct {
		name    string
		variant fig15Variant
		opt     compile.Options
		want    pin
	}{
		{"branching", variantBranching, compile.Options{},
			pin{fragments: 2, matBytes: 33353, foldRuns: 64}},
		{"branch-free", variantBranchFree, compile.Options{Predication: true},
			pin{fragments: 3, matBytes: 70217, foldRuns: 65}},
		{"vectorized", variantVectorized, compile.Options{Predication: true},
			pin{fragments: 1, matBytes: 32777, foldRuns: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := tracedRun(t, fig15Program(0.5, 64, c.variant), st, c.opt)
			checkPin(t, c.name, tr, c.want)

			// Buffer sizes are plan-shaped, not data-shaped: a different
			// selectivity must materialize exactly the same bytes.
			tr2 := tracedRun(t, fig15Program(0.1, 64, c.variant), st, c.opt)
			if tr2.MaterializedBytes != tr.MaterializedBytes {
				t.Errorf("materialized bytes depend on selectivity: %d at 0.5, %d at 0.1",
					tr.MaterializedBytes, tr2.MaterializedBytes)
			}
		})
	}

	// The paper's "single additional operator" claim, as bytes: the only
	// difference between branch-free and branching is the full-size
	// position buffer (8 data + 1 validity byte per slot).
	br := tracedRun(t, fig15Program(0.5, 64, variantBranching), st, compile.Options{})
	bf := tracedRun(t, fig15Program(0.5, 64, variantBranchFree), st, compile.Options{Predication: true})
	if delta := bf.MaterializedBytes - br.MaterializedBytes; delta != int64(fusionN*9) {
		t.Errorf("branch-free materializes %d extra bytes over branching, want exactly %d (the position buffer)",
			delta, fusionN*9)
	}
}

// TestFig16FusionInvariants pins the plan shape of the three Figure 16
// FK-join strategies at n=4096, runLen=64. All three fuse to two
// fragments with identical seam traffic — the strategies differ in
// instruction mix (branching vs masked lookups), not in materialization,
// which is exactly why Figure 16 is a compute experiment.
func TestFig16FusionInvariants(t *testing.T) {
	m := 2 * fusionN
	st := interp.MemStorage{
		"fact": vector.New(fusionN).
			Set("fk", vector.NewInt(uniformInts(fusionN, int64(m), 26))).
			Set("v", vector.NewFloat(uniformFloats(fusionN, 27))),
		"target": vector.New(m).Set("tv", vector.NewFloat(uniformFloats(m, 28))),
	}
	cases := []struct {
		name    string
		variant fig16Variant
		want    pin
	}{
		{"branching", fkBranching, pin{fragments: 2, matBytes: 33353, foldRuns: 64}},
		{"predicated-aggregation", fkPredicatedAggregation, pin{fragments: 2, matBytes: 33353, foldRuns: 65}},
		{"predicated-lookups", fkPredicatedLookups, pin{fragments: 2, matBytes: 33353, foldRuns: 65}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := tracedRun(t, fig16Program(0.5, 64, c.variant), st, compile.Options{})
			checkPin(t, c.name, tr, c.want)
		})
	}
}

// TestVirtualScatterInvariants pins the Figure 4 lane-aggregation plan
// (the virtual-scatter ablation): compiled, the data-controlled scatter
// dissolves into index arithmetic — zero elements moved, one step flagged
// virtual, 2 fragments (the pivot list, which only a counting sort reads,
// is never stored), ~33 KB of seam traffic. Forced bulk, the same
// program moves all 4096 elements through a materialized scatter and
// pushes 458 KB through memory. The ratio is the mechanism's value; the
// exact numbers keep it honest.
func TestVirtualScatterInvariants(t *testing.T) {
	st := fusionStorage(t)
	prog := func() *core.Program {
		b := core.NewBuilder()
		input := b.Load("facts")
		ids := b.Range(input)
		lanes := b.Project("partition", b.Modulo(ids, b.Constant(8)), "")
		withPart := b.Zip("val", input, "v2", "partition", lanes, "partition")
		positions := b.Partition("pos", lanes, "partition", b.RangeN(0, 8, 1), "")
		posVec := b.Upsert(withPart, "pos", positions, "pos")
		scattered := b.Scatter(withPart, input, "", posVec, "pos")
		p := b.FoldSum(scattered, "partition", "val")
		b.GlobalSum(p, "")
		return b.Program()
	}

	fused := tracedRun(t, prog(), st, compile.Options{})
	checkPin(t, "fused", fused, pin{fragments: 2, matBytes: 32849, foldRuns: 9, scatters: 0})
	virtual := 0
	for _, s := range fused.Steps {
		if s.Virtual {
			virtual++
		}
	}
	if virtual != 1 {
		t.Errorf("fused plan has %d virtual-scatter steps, want 1", virtual)
	}

	bulk := tracedRun(t, prog(), st, compile.Options{ForceBulk: true})
	checkPin(t, "bulk", bulk, pin{bulkSteps: 11, matBytes: 458824, foldRuns: 2, scatters: fusionN})
}

// TestEmptySlotSuppressionInvariants pins the hierarchical-sum ablation:
// compiled, fold outputs stay compact (one slot per run) and the whole
// query materializes ~33 KB; forced bulk pads every fold output to full
// size and materializes 262 KB — the difference is exactly the
// suppressed ε padding.
func TestEmptySlotSuppressionInvariants(t *testing.T) {
	st := fusionStorage(t)
	prog := func() *core.Program {
		b := core.NewBuilder()
		input := b.Load("facts")
		ids := b.Range(input)
		fold := b.Project("fold", b.Divide(ids, b.Constant(1024)), "")
		withFold := b.Zip("val", input, "v2", "fold", fold, "fold")
		p := b.FoldSum(withFold, "fold", "val")
		b.GlobalSum(p, "")
		return b.Program()
	}

	fused := tracedRun(t, prog(), st, compile.Options{})
	checkPin(t, "fused", fused, pin{fragments: 2, matBytes: 32813, foldRuns: 5})

	bulk := tracedRun(t, prog(), st, compile.Options{ForceBulk: true})
	checkPin(t, "bulk", bulk, pin{bulkSteps: 7, matBytes: 262152, foldRuns: 2})

	if bulk.MaterializedBytes <= 4*fused.MaterializedBytes {
		t.Errorf("bulk traffic %d B is not ≫ fused %d B — suppression stopped paying off",
			bulk.MaterializedBytes, fused.MaterializedBytes)
	}
}
