package compile

import (
	"context"
	"testing"

	"voodoo/internal/core"
	"voodoo/internal/interp"
	"voodoo/internal/storage"
	"voodoo/internal/trace"
)

// zoneCatalog builds a catalog whose single int column v holds [0, 99],
// so its zone map proves predicates like v > 1000 empty.
func zoneCatalog(n int) *storage.Catalog {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	return storage.NewCatalog().Add(storage.NewTable("t").AddInt("v", vals))
}

// zoneDiff compiles and runs the program against the catalog (which
// provides statistics) and requires root values identical to the
// interpreter's; it returns the plan for structural assertions.
func zoneDiff(t *testing.T, b *core.Builder, cat *storage.Catalog, opt Options) *Plan {
	t.Helper()
	p := b.Program()
	want, err := interp.Run(context.Background(), p, cat, interp.Opts{})
	if err != nil {
		t.Fatalf("interp: %v\nprogram:\n%s", err, p)
	}
	plan, err := Compile(p, cat, opt)
	if err != nil {
		t.Fatalf("compile: %v\nprogram:\n%s", err, p)
	}
	got, err := plan.RunWith(context.Background(), RunOpts{})
	if err != nil {
		t.Fatalf("run: %v\nprogram:\n%s\nkernel:\n%s", err, p, plan.Kernel())
	}
	if len(got.Values) == 0 {
		t.Fatalf("no root values produced\nprogram:\n%s", p)
	}
	for ref, gv := range got.Values {
		if wv := want.Value(ref); !gv.Equal(wv) {
			t.Fatalf("root v%d differs\nprogram:\n%s\nkernel:\n%s\nwant:\n%s\ngot:\n%s",
				ref, p, plan.Kernel(), wv, gv)
		}
	}
	return plan
}

func prunedSteps(p *Plan) int {
	n := 0
	for _, s := range p.steps {
		if _, ok := s.(*prunedStep); ok {
			n++
		}
	}
	return n
}

// TestZoneMapPrunesImpossibleSelection: a selection whose predicate the
// column statistics prove unsatisfiable compiles to a pruned step (no
// fragment) in both branching and predicated modes, with results still
// bit-identical to the interpreter.
func TestZoneMapPrunesImpossibleSelection(t *testing.T) {
	for _, tc := range []struct {
		label string
		opt   Options
	}{
		{"branching", Options{}},
		{"predicated", Options{Predication: true}},
	} {
		t.Run(tc.label, func(t *testing.T) {
			cat := zoneCatalog(100)
			b := core.NewBuilder()
			in := b.Load("t")
			pred := b.Greater(in, b.Constant(1000))
			sel := b.FoldSelect(pred, "", "")
			b.Materialize(sel, sel, "")
			plan := zoneDiff(t, b, cat, tc.opt)
			if got := prunedSteps(plan); got != 1 {
				t.Errorf("pruned steps = %d, want 1", got)
			}
			for _, f := range plan.kern.Frags {
				if f.Prov.Kind == "select" {
					t.Errorf("selection fragment %s emitted despite provably-empty predicate", f.Name)
				}
			}
		})
	}
}

// TestZoneMapPrunesImpossibleFilter: the gather-through-select fast path
// (Figure 1's selection) is pruned the same way.
func TestZoneMapPrunesImpossibleFilter(t *testing.T) {
	cat := zoneCatalog(64)
	b := core.NewBuilder()
	in := b.Load("t")
	pred := b.Greater(in, b.Constant(500))
	sel := b.FoldSelect(pred, "", "")
	b.Gather(in, sel, "")
	plan := zoneDiff(t, b, cat, Options{})
	if got := prunedSteps(plan); got != 1 {
		t.Errorf("pruned steps = %d, want 1", got)
	}
}

// TestZoneMapKeepsSatisfiableSelection: a predicate the statistics cannot
// refute compiles to a real fragment — pruning must never fire on a
// selection that can pass.
func TestZoneMapKeepsSatisfiableSelection(t *testing.T) {
	cat := zoneCatalog(100)
	b := core.NewBuilder()
	in := b.Load("t")
	pred := b.Greater(in, b.Constant(50))
	sel := b.FoldSelect(pred, "", "")
	b.Materialize(sel, sel, "")
	plan := zoneDiff(t, b, cat, Options{})
	if got := prunedSteps(plan); got != 0 {
		t.Errorf("pruned steps = %d, want 0 (predicate is satisfiable)", got)
	}
}

// TestZoneMapInertWithoutStats: storage that provides no statistics (the
// plain MemStorage used everywhere else) never prunes.
func TestZoneMapInertWithoutStats(t *testing.T) {
	st := interp.MemStorage{"t": seqVec("v", 100)}
	b := core.NewBuilder()
	in := b.Load("t")
	pred := b.Greater(in, b.Constant(1000))
	sel := b.FoldSelect(pred, "", "")
	b.Materialize(sel, sel, "")
	plan, err := Compile(b.Program(), st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := prunedSteps(plan); got != 0 {
		t.Errorf("pruned steps = %d, want 0 (no statistics available)", got)
	}
}

// TestZoneMapPrunedTrace: the elided step surfaces in the execution trace
// with kind "pruned" and its statement provenance.
func TestZoneMapPrunedTrace(t *testing.T) {
	cat := zoneCatalog(100)
	b := core.NewBuilder()
	in := b.Load("t")
	pred := b.Greater(in, b.Constant(1000))
	sel := b.FoldSelect(pred, "", "")
	b.Materialize(sel, sel, "")
	plan, err := Compile(b.Program(), cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.RunWith(context.Background(), RunOpts{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	found := false
	for _, s := range tr.Steps {
		if s.Kind == trace.KindPruned {
			found = true
			if len(s.Stmts) == 0 {
				t.Error("pruned step lost its statement provenance")
			}
		}
	}
	if !found {
		t.Fatalf("no pruned step in trace:\n%s", tr)
	}
}

// TestCatalogColumnRange pins the storage-side zone-map contract: kind-
// aware ranges, dictionary code ranges, the single-column "table.col"
// naming, and refusal past float64's integer-exact window.
func TestCatalogColumnRange(t *testing.T) {
	cat := storage.NewCatalog().Add(storage.NewTable("t").
		AddInt("i", []int64{-3, 7, 5}).
		AddFloat("f", []float64{1.5, -2.5, 0}).
		AddString("s", []string{"b", "a", "c"}).
		AddInt("big", []int64{1 << 60, 0, 0}))
	check := func(vec, col string, wantLo, wantHi float64, wantOK bool) {
		t.Helper()
		lo, hi, ok := cat.ColumnRange(vec, col)
		if ok != wantOK || (ok && (lo != wantLo || hi != wantHi)) {
			t.Errorf("ColumnRange(%q, %q) = (%g, %g, %v), want (%g, %g, %v)",
				vec, col, lo, hi, ok, wantLo, wantHi, wantOK)
		}
	}
	check("t", "i", -3, 7, true)
	check("t", "f", -2.5, 1.5, true)
	check("t", "s", 0, 2, true) // dictionary codes, sorted
	check("t", "big", 0, 0, false)
	check("t.i", "i", -3, 7, true)
	check("t", "missing", 0, 0, false)
	check("nope", "i", 0, 0, false)
}
