package core

import (
	"fmt"
	"strings"
)

// Ref identifies a statement within a Program; it is the statement's index.
type Ref int

// NoRef marks an absent optional operand.
const NoRef Ref = -1

// Stmt is a single SSA statement: the application of one operator to the
// results of earlier statements.
type Stmt struct {
	ID   Ref
	Op   Op
	Args []Ref // operand statement refs, in Table 2 order

	// Kp holds one keypath per operand (same indexing as Args); empty
	// strings mean "the operand's single/whole payload". For folds,
	// Kp[0] is the fold control attribute and FoldVal the aggregated
	// value attribute.
	Kp      []string
	FoldVal string

	// Out names the produced attribute(s). Most operators produce one.
	Out []string

	// Literal operands.
	Name     string  // Load / Persist target
	IntVal   int64   // Constant value; Range from
	FloatVal float64 // Constant float value
	IsFloat  bool    // Constant is float-typed
	Step     int64   // Range step
	Size     int     // Range literal size (when no vector argument)

	// Label is an optional SSA name for diagnostics and printing.
	Label string
}

// Program is an SSA-form Voodoo program: a statement list whose dataflow
// forms a DAG. Statements only reference earlier statements.
type Program struct {
	Stmts []Stmt
}

// Add appends a statement, assigning its ID. It returns the new Ref.
func (p *Program) Add(s Stmt) Ref {
	s.ID = Ref(len(p.Stmts))
	p.Stmts = append(p.Stmts, s)
	return s.ID
}

// Roots returns the refs of statements whose result no other statement
// consumes. Backends evaluate programs for their roots (and Persist side
// effects).
func (p *Program) Roots() []Ref {
	used := make([]bool, len(p.Stmts))
	for _, s := range p.Stmts {
		for _, a := range s.Args {
			if a >= 0 {
				used[a] = true
			}
		}
	}
	var roots []Ref
	for i, s := range p.Stmts {
		if !used[i] || s.Op == OpPersist {
			if s.Op != OpPersist || !used[i] {
				roots = append(roots, Ref(i))
			}
		}
	}
	return roots
}

// Uses returns, for every statement, how many times the statements after
// it consume its result.
func (p *Program) Uses() []int {
	uses := make([]int, len(p.Stmts))
	for _, s := range p.Stmts {
		for _, a := range s.Args {
			if a >= 0 {
				uses[a]++
			}
		}
	}
	return uses
}

// Validate checks structural well-formedness: argument arity, forward-only
// references and required literals. Semantic (schema) errors surface at
// evaluation time, when sizes and attribute sets are known.
func (p *Program) Validate() error {
	for i, s := range p.Stmts {
		info, ok := opTable[s.Op]
		if !ok {
			return fmt.Errorf("stmt %d: unknown op %v", i, s.Op)
		}
		if info.arity >= 0 && len(s.Args) != info.arity {
			return fmt.Errorf("stmt %d (%s): want %d args, have %d", i, s.Op, info.arity, len(s.Args))
		}
		if s.Op == OpRange && len(s.Args) > 1 {
			return fmt.Errorf("stmt %d (Range): at most one vector argument", i)
		}
		if s.Op == OpRange && len(s.Args) == 0 && s.Size <= 0 {
			return fmt.Errorf("stmt %d (Range): literal size must be positive", i)
		}
		for _, a := range s.Args {
			if a < 0 || int(a) >= i {
				return fmt.Errorf("stmt %d (%s): arg ref %d out of range", i, s.Op, a)
			}
		}
		if (s.Op == OpLoad || s.Op == OpPersist) && s.Name == "" {
			return fmt.Errorf("stmt %d (%s): missing name", i, s.Op)
		}
		if s.Op == OpZip && len(s.Out) != 2 {
			return fmt.Errorf("stmt %d (Zip): want 2 output names, have %d", i, len(s.Out))
		}
		if s.Op == OpCross && len(s.Out) != 2 {
			return fmt.Errorf("stmt %d (Cross): want 2 output names, have %d", i, len(s.Out))
		}
	}
	return nil
}

// label returns the diagnostic name of statement r.
func (p *Program) label(r Ref) string {
	if r < 0 {
		return "_"
	}
	if l := p.Stmts[r].Label; l != "" {
		return l
	}
	return fmt.Sprintf("v%d", r)
}

// String renders the program in the paper's SSA notation (compare Figure 3).
func (p *Program) String() string {
	var sb strings.Builder
	for i, s := range p.Stmts {
		fmt.Fprintf(&sb, "%s := %s(", p.label(Ref(i)), s.Op)
		var parts []string
		switch s.Op {
		case OpLoad, OpPersist:
			parts = append(parts, fmt.Sprintf("%q", s.Name))
		case OpConstant:
			if s.IsFloat {
				parts = append(parts, fmt.Sprintf("%g", s.FloatVal))
			} else {
				parts = append(parts, fmt.Sprintf("%d", s.IntVal))
			}
		case OpRange:
			parts = append(parts, fmt.Sprintf("from=%d", s.IntVal))
			if len(s.Args) == 0 {
				parts = append(parts, fmt.Sprintf("size=%d", s.Size))
			}
			if s.Step != 1 {
				parts = append(parts, fmt.Sprintf("step=%d", s.Step))
			}
		}
		for j, a := range s.Args {
			ref := p.label(a)
			if j < len(s.Kp) && s.Kp[j] != "" {
				ref += "." + s.Kp[j]
			}
			parts = append(parts, ref)
		}
		if s.FoldVal != "" {
			parts = append(parts, "."+s.FoldVal)
		}
		for _, o := range s.Out {
			if o == "val" && len(s.Out) == 1 {
				continue // default output name: omit for readability
			}
			parts = append(parts, "out=."+o)
		}
		sb.WriteString(strings.Join(parts, ", "))
		sb.WriteString(")\n")
	}
	return sb.String()
}
