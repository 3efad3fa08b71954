package difftest

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"voodoo/internal/core"
	"voodoo/internal/interp"
	"voodoo/internal/rel"
	"voodoo/internal/tpch"
	"voodoo/internal/verify"
)

// checkModel holds the verifier's static model to the interpreter: every
// statement whose model is known must have produced a value of exactly that
// length, with exactly those attribute names in that order, of exactly
// those kinds. The compiler's bulk steps declare their output buffers from
// this model, so it must be exact, not merely sound. Programs the
// interpreter rejects are skipped. It returns how many statements it
// compared.
func checkModel(t *testing.T, what string, p *core.Program, st interp.Storage) int {
	t.Helper()
	model, _ := verify.Derive(p, st)
	res, err := interp.Run(context.Background(), p, st, interp.Opts{})
	if err != nil {
		return 0
	}
	compared := 0
	for i, m := range model {
		if !m.Known {
			continue
		}
		v := res.Value(core.Ref(i))
		if v.Len() != m.N || !slices.Equal(v.Names(), m.Names) {
			t.Errorf("%s stmt %d (%s): model is %d x %v, interpreter produced %d x %v\nprogram:\n%s",
				what, i, p.Stmts[i].Op, m.N, m.Names, v.Len(), v.Names(), p)
			continue
		}
		for _, name := range m.Names {
			if k, got := m.Kind(name), v.Col(name).Kind(); k != got {
				t.Errorf("%s stmt %d (%s): attribute %q modelled as %v, interpreter produced %v\nprogram:\n%s",
					what, i, p.Stmts[i].Op, name, k, got, p)
			}
		}
		compared++
	}
	return compared
}

// TestModelIsExact checks the static model on every generated program.
func TestModelIsExact(t *testing.T) {
	n := fullPrograms
	if testing.Short() {
		n = shortPrograms
	}
	compared := 0
	for seed := int64(1); seed <= int64(n); seed++ {
		p := Generate(seed)
		compared += checkModel(t, fmt.Sprintf("seed %d", seed), p.Prog, p.St)
	}
	if compared == 0 {
		t.Fatal("no statement had a known model")
	}
}

// TestModelIsExactTPCH checks the static model on every lowered TPC-H
// program.
func TestModelIsExactTPCH(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.002, Seed: 42})
	for _, num := range tpch.QueryNumbers {
		q, err := tpch.Plan(num, cat)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := rel.Lower(q, cat)
		if err != nil {
			t.Fatalf("q%d: %v", num, err)
		}
		if checkModel(t, fmt.Sprintf("q%d", num), prog, cat) == 0 {
			t.Errorf("q%d: no statement had a known model", num)
		}
	}
}
