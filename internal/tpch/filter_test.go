package tpch

import (
	"slices"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/kernel"
	"voodoo/internal/rel"
)

// spilledForFolds names, per query, the one filter fragment allowed to be
// read only by folds, and the reason the compiler keeps it spilled.
var spilledForFolds = map[int]struct{ frag, why string }{
	7: {"filt_1", "the shipping-date filter feeds the nation-pair selection, whose run control " +
		"is a Range over the filtered rows: a Range sized by a filter sees where ε slots sit, so " +
		"the first filter spills, and the grouped fold reads it once the second filter folds through"},
	14: {"filt_1", "the global fold is hierarchical, keyed on runs of 59 filtered rows (Range/59): " +
		"runs keyed on anything but a partition would span other rows in place"},
}

// foldOnlyFilters lists the filter fragments of k whose stored buffers are
// read by fragments that all are folds.
func foldOnlyFilters(k *kernel.Kernel) []string {
	var out []string
	for _, f := range k.Frags {
		if f.Prov.Kind != "filter" {
			continue
		}
		stored := map[int]bool{}
		for _, l := range f.Loops {
			for _, in := range l.Body {
				if in.Op == kernel.IStore {
					stored[in.Buf] = true
				}
			}
		}
		readers, folds := 0, 0
		for _, g := range k.Frags {
			if g != f && reads(g, stored) {
				readers++
				if g.Prov.Kind == "fold" || g.Prov.Kind == "group-fold" {
					folds++
				}
			}
		}
		if readers > 0 && readers == folds {
			out = append(out, f.Name)
		}
	}
	return out
}

// reads reports whether any instruction of f loads from a buffer in bufs.
func reads(f *kernel.Fragment, bufs map[int]bool) bool {
	bodies := [][]kernel.Instr{f.Pre, f.Post, f.PostLoopBody}
	for _, l := range f.Loops {
		bodies = append(bodies, l.Body)
	}
	for _, body := range bodies {
		for _, in := range body {
			if (in.Op == kernel.ILoad || in.Op == kernel.ILoadValid) && bufs[in.Buf] {
				return true
			}
		}
	}
	return false
}

// TestNoFilterFeedsOnlyFolds: a filter whose rows reach nothing but folds
// is read in place by them, so no TPC-H plan spills one into buffers that
// only fold fragments read — except where spilledForFolds says why. An
// exception that no longer applies fails too, so the list stays true.
func TestNoFilterFeedsOnlyFolds(t *testing.T) {
	for _, num := range QueryNumbers {
		qf, err := Query(num)
		if err != nil {
			t.Fatal(err)
		}
		var found []string
		e := &rel.Engine{Cat: testCat, Backend: rel.Compiled, PlanSink: func(p *compile.Plan) {
			found = append(found, foldOnlyFilters(p.Kernel())...)
		}}
		if _, _, err := qf(e); err != nil {
			t.Fatalf("%s: %v", queryName(num), err)
		}
		want, excepted := spilledForFolds[num]
		switch {
		case excepted && !slices.Equal(found, []string{want.frag}):
			t.Errorf("%s: filters read only by folds %v, want exactly %s (%s)", queryName(num), found, want.frag, want.why)
		case !excepted && len(found) > 0:
			t.Errorf("%s: filters %v are spilled into buffers only folds read; they should fold through", queryName(num), found)
		}
	}
}
