package core

import (
	"strings"
	"testing"
)

func TestBuilderFigure3Shape(t *testing.T) {
	b := NewBuilder()
	input := b.Label(b.Load("input"), "input")
	ids := b.Label(b.Range(input), "ids")
	partitionSize := b.Label(b.Constant(1024), "partitionSize")
	partitionIDs := b.Label(b.Divide(ids, partitionSize), "partitionIDs")
	_ = partitionIDs
	p := b.Program()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := p.String()
	for _, want := range []string{
		`input := Load("input")`,
		"ids := Range(from=0, input)",
		"partitionSize := Constant(1024)",
		"partitionIDs := Divide(ids, partitionSize)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("program text missing %q:\n%s", want, s)
		}
	}
}

func TestValidateRejectsForwardRef(t *testing.T) {
	var p Program
	p.Add(Stmt{Op: OpProject, Args: []Ref{5}, Kp: []string{""}, Out: []string{"x"}})
	if err := p.Validate(); err == nil {
		t.Fatal("expected forward-reference error")
	}
}

func TestValidateRejectsWrongArity(t *testing.T) {
	var p Program
	p.Add(Stmt{Op: OpAdd, Args: []Ref{}, Out: []string{"x"}})
	if err := p.Validate(); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestValidateRejectsMissingLoadName(t *testing.T) {
	var p Program
	p.Add(Stmt{Op: OpLoad})
	if err := p.Validate(); err == nil {
		t.Fatal("expected missing-name error")
	}
}

func TestValidateRejectsRangeWithoutSize(t *testing.T) {
	var p Program
	p.Add(Stmt{Op: OpRange, Out: []string{"v"}})
	if err := p.Validate(); err == nil {
		t.Fatal("expected range-size error")
	}
}

func TestRoots(t *testing.T) {
	b := NewBuilder()
	in := b.Load("t")
	x := b.Add(in, in)
	y := b.Multiply(x, x)
	_ = y
	roots := b.Program().Roots()
	if len(roots) != 1 || roots[0] != y {
		t.Fatalf("Roots = %v, want [%d]", roots, y)
	}
}

func TestUses(t *testing.T) {
	b := NewBuilder()
	in := b.Load("t")
	x := b.Add(in, in)
	_ = b.Multiply(x, in)
	uses := b.Program().Uses()
	if uses[in] != 3 { // twice by Add, once by Multiply
		t.Fatalf("uses of load = %d, want 3", uses[in])
	}
	if uses[x] != 1 {
		t.Fatalf("uses of add = %d, want 1", uses[x])
	}
}

func TestOpClassification(t *testing.T) {
	if !OpAdd.IsArith() || OpZip.IsArith() {
		t.Error("IsArith misclassifies")
	}
	if !OpFoldSum.IsFold() || OpScatter.IsFold() {
		t.Error("IsFold misclassifies")
	}
	if !OpRange.IsShape() || OpGather.IsShape() {
		t.Error("IsShape misclassifies")
	}
}

func TestArithPanicsOnNonArithOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder()
	in := b.Load("t")
	b.Arith(OpZip, "x", in, "", in, "")
}

func TestOpString(t *testing.T) {
	if OpFoldSelect.String() != "FoldSelect" {
		t.Errorf("OpFoldSelect.String() = %q", OpFoldSelect.String())
	}
	if !strings.HasPrefix(Op(200).String(), "Op(") {
		t.Errorf("unknown op should stringify as Op(n)")
	}
}
