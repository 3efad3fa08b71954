package vector

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRunMetaValue(t *testing.T) {
	tests := []struct {
		name string
		m    RunMeta
		want []int64
	}{
		{"identity", Step(0, 1), []int64{0, 1, 2, 3, 4, 5}},
		{"from", Step(10, 1), []int64{10, 11, 12, 13, 14, 15}},
		{"divide4", RunMeta{StepNum: 1, StepDen: 4}, []int64{0, 0, 0, 0, 1, 1}},
		{"divide3", RunMeta{StepNum: 1, StepDen: 3}, []int64{0, 0, 0, 1, 1, 1}},
		{"mod2", RunMeta{StepNum: 1, StepDen: 1, Cap: 2}, []int64{0, 1, 0, 1, 0, 1}},
		{"mod3from1", RunMeta{From: 1, StepNum: 1, StepDen: 1, Cap: 3}, []int64{1, 2, 0, 1, 2, 0}},
		{"const", RunMeta{From: 7}, []int64{7, 7, 7, 7, 7, 7}},
		{"step2", Step(0, 2), []int64{0, 2, 4, 6, 8, 10}},
		{"negstep", Step(0, -2), []int64{0, -2, -4, -6, -8, -10}},
		{"negfraction", RunMeta{StepNum: -1, StepDen: 2}, []int64{0, -1, -1, -2, -2, -3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for i, want := range tt.want {
				if got := tt.m.Value(i); got != want {
					t.Errorf("%v.Value(%d) = %d, want %d", tt.m, i, got, want)
				}
			}
		})
	}
}

// TestRunMetaDivideLaw checks the paper's §3.1 law: dividing a control
// vector by x is equivalent to dividing its step by x.
func TestRunMetaDivideLaw(t *testing.T) {
	f := func(step uint8, x uint8, i uint16) bool {
		s := int64(step%16) + 1
		d := int64(x%16) + 1
		m := Step(0, s)
		dm, ok := m.Divide(d)
		if !ok {
			return false
		}
		return dm.Value(int(i)) == m.Value(int(i))/d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRunMetaModuloLaw checks: taking a control vector modulo x is
// equivalent to setting its cap to x.
func TestRunMetaModuloLaw(t *testing.T) {
	f := func(x uint8, i uint16) bool {
		d := int64(x%16) + 1
		m := Step(0, 1)
		mm, ok := m.Modulo(d)
		if !ok {
			return false
		}
		return mm.Value(int(i)) == m.Value(int(i))%d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRunMetaDivideOfNegatives: division truncates, so a control vector
// with a negative value, -4, -3, … or 0, -1, …, is not its metadata with
// the step divided (that floors: -2, -2 for -4/2, -3/2).
func TestRunMetaDivideOfNegatives(t *testing.T) {
	for _, m := range []RunMeta{Step(-4, 1), Step(0, -1)} {
		if dm, ok := m.Divide(2); ok {
			t.Errorf("%v / 2 folded into %v, want it materialized", m, dm)
		}
	}
}

func TestRunMetaDivideAfterModulo(t *testing.T) {
	m := RunMeta{StepNum: 1, StepDen: 1, Cap: 4}
	if _, ok := m.Divide(2); ok {
		t.Error("Divide after Modulo should not be expressible in metadata")
	}
}

func TestRunMetaModuloOfModulo(t *testing.T) {
	m := RunMeta{StepNum: 1, StepDen: 1, Cap: 8}
	if mm, ok := m.Modulo(4); !ok || mm.Cap != 4 {
		t.Errorf("modulo 4 of cap-8 vector should be expressible, got %v %v", mm, ok)
	}
	if _, ok := m.Modulo(3); ok {
		t.Error("modulo 3 of cap-8 vector is not expressible in metadata")
	}
}

func TestRunLength(t *testing.T) {
	tests := []struct {
		m      RunMeta
		want   int
		wantOK bool
	}{
		{Step(0, 1), 1, true},
		{RunMeta{StepNum: 1, StepDen: 4}, 4, true},
		{RunMeta{StepNum: 1, StepDen: 1024}, 1024, true},
		{RunMeta{StepNum: 1, StepDen: 3}, 3, true},   // exactness floats cannot give
		{RunMeta{}, 0, false},                        // constant: one unbounded run
		{Step(0, 2), 1, true},                        // step > 1 still has runs of 1
		{RunMeta{StepNum: 3, StepDen: 10}, 0, false}, // non-uniform run lengths
		{RunMeta{StepNum: 3, StepDen: 2}, 0, false},  // non-integral increments
	}
	for _, tt := range tests {
		got, ok := tt.m.RunLength()
		if got != tt.want || ok != tt.wantOK {
			t.Errorf("%+v.RunLength() = %d,%v want %d,%v", tt.m, got, ok, tt.want, tt.wantOK)
		}
	}
}

func TestColumnEmptySlots(t *testing.T) {
	c := NewEmptyInt(4)
	if c.Valid(0) {
		t.Fatal("fresh empty column should have no valid slots")
	}
	c.SetInt(2, 42)
	if !c.Valid(2) || c.Int(2) != 42 {
		t.Fatalf("slot 2 = (%v, %d), want (true, 42)", c.Valid(2), c.Int(2))
	}
	if c.Valid(1) {
		t.Fatal("slot 1 should still be empty")
	}
	c.SetEmpty(2)
	if c.Valid(2) {
		t.Fatal("SetEmpty should clear the slot")
	}
}

func TestColumnSetEmptyOnFullColumn(t *testing.T) {
	c := NewInt([]int64{1, 2, 3})
	if !c.AllValid() {
		t.Fatal("materialized column should be all-valid")
	}
	c.SetEmpty(1)
	if c.Valid(1) || !c.Valid(0) || !c.Valid(2) {
		t.Fatal("SetEmpty(1) should empty only slot 1")
	}
	if c.AllValid() {
		t.Fatal("AllValid after SetEmpty")
	}
}

func TestGeneratedColumnMaterialize(t *testing.T) {
	g := NewGenerated(10, RunMeta{From: 5, StepNum: 1, StepDen: 2, Cap: 4})
	m := g.Materialize()
	if !g.Equal(m) {
		t.Fatalf("materialized generated column differs:\n%v\n%v", g.Ints(), m.Ints())
	}
	if _, ok := m.Generated(); ok {
		t.Fatal("materialized column should not report as generated")
	}
}

func TestColumnSlice(t *testing.T) {
	c := NewInt([]int64{0, 1, 2, 3, 4})
	c.SetEmpty(3)
	s := c.Slice(2, 5)
	if s.Len() != 3 || s.Int(0) != 2 || s.Valid(1) || s.Int(2) != 4 {
		t.Fatalf("bad slice: %v", s)
	}
}

func TestVectorSubtree(t *testing.T) {
	v := New(3)
	v.Set("a", NewConst(3, 1))
	v.Set("in.x", NewConst(3, 2))
	v.Set("in.y", NewConst(3, 3))

	names, cols, ok := v.Subtree("a")
	if !ok || len(names) != 1 || names[0] != "" || cols[0].Int(0) != 1 {
		t.Fatalf("Subtree(a) = %v, %v, %v", names, cols, ok)
	}
	names, _, ok = v.Subtree("in")
	if !ok || len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("Subtree(in) = %v, %v", names, ok)
	}
	if _, _, ok := v.Subtree("nope"); ok {
		t.Fatal("Subtree(nope) should not match")
	}
}

func TestVectorEqualIgnoresAttributeOrder(t *testing.T) {
	a := New(2).Set("x", NewConst(2, 1)).Set("y", NewConst(2, 2))
	b := New(2).Set("y", NewConst(2, 2)).Set("x", NewConst(2, 1))
	if !a.Equal(b) {
		t.Fatal("vectors with same attrs in different order should be equal")
	}
	c := New(2).Set("x", NewConst(2, 1)).Set("y", NewConst(2, 3))
	if a.Equal(c) {
		t.Fatal("vectors with different values should not be equal")
	}
}

func TestVectorSetLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	New(3).Set("x", NewConst(4, 0))
}

func TestColumnEqualGeneratedVsMaterialized(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		m := RunMeta{From: r.Int63n(100), StepNum: r.Int63n(8), StepDen: 1 + r.Int63n(4), Cap: r.Int63n(5)}
		n := r.Intn(64) + 1
		g := NewGenerated(n, m)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = m.Value(i)
		}
		if !g.Equal(NewInt(vals)) {
			t.Fatalf("generated %+v != explicit values", m)
		}
	}
}
