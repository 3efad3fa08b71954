package verify

import (
	"strings"

	"voodoo/internal/core"
	"voodoo/internal/vector"
)

// Storage is the read side of a persistent store, used by the algebra
// verifier to resolve Load schemas. interp.Storage and the storage
// catalogs satisfy it. A nil Storage degrades gracefully: Loads produce
// unknown schemas and every check that would need one is skipped.
type Storage interface {
	LoadVector(name string) (*vector.Vector, error)
}

// colInfo is the static model of one attribute column: scalar kind and
// whether every slot certainly holds a value.
type colInfo struct {
	kind     vector.Kind
	allValid bool
}

// Value is the static model of one statement's vector value: its length N
// and its attribute Names in the interpreter's order, each with a Kind. It
// is exact: a statement the interpreter evaluates has this length and these
// attributes. Known=false poisons every derived property so one unknown
// never cascades into unsound diagnostics downstream.
type Value struct {
	Known bool
	N     int
	Names []string
	cols  map[string]colInfo
}

// Kind returns attribute name's scalar kind.
func (v Value) Kind(name string) vector.Kind { return v.cols[name].kind }

var unknownVec = Value{}

func newVec(n int) Value {
	return Value{Known: true, N: n, cols: map[string]colInfo{}}
}

func (v *Value) set(name string, c colInfo) {
	if _, ok := v.cols[name]; !ok {
		v.Names = append(v.Names, name)
	}
	v.cols[name] = c
}

// fromVector models a concrete stored vector.
func fromVector(v *vector.Vector) Value {
	out := newVec(v.Len())
	for _, name := range v.Names() {
		c := v.Col(name)
		out.set(name, colInfo{kind: c.Kind(), allValid: c.AllValid()})
	}
	return out
}

// subtree mirrors vector.Subtree: the exact attribute, or every attribute
// under the "kp." prefix with relative names.
func (v *Value) subtree(kp string) (rel []string, cols []colInfo, ok bool) {
	if c, exists := v.cols[kp]; exists {
		return []string{""}, []colInfo{c}, true
	}
	prefix := kp + "."
	for _, n := range v.Names {
		if strings.HasPrefix(n, prefix) {
			rel = append(rel, n[len(prefix):])
			cols = append(cols, v.cols[n])
		}
	}
	return rel, cols, len(rel) > 0
}

// pv is the algebra-level verification state: the per-statement value
// models plus a persistence overlay so Load sees what an earlier Persist
// wrote.
type pv struct {
	st        Storage
	vals      []Value
	persisted map[string]Value
	diags     []Diagnostic
}

// Program verifies a core program at the algebra level. st resolves Load
// schemas (nil disables storage-dependent checks). Every Error-level
// diagnostic is sound: the reference interpreter rejects the program.
func Program(p *core.Program, st Storage) []Diagnostic {
	_, diags := Derive(p, st)
	return diags
}

// Derive computes the static model of every statement of p, indexed by
// statement id, along with Program's diagnostics. The compiler declares
// its bulk steps' output buffers from it.
func Derive(p *core.Program, st Storage) ([]Value, []Diagnostic) {
	v := &pv{st: st, vals: make([]Value, len(p.Stmts)), persisted: map[string]Value{}}
	for i := range p.Stmts {
		s := &p.Stmts[i]
		if !v.structural(i, s) {
			v.vals[i] = unknownVec
			continue
		}
		v.vals[i] = v.derive(i, s)
	}
	return v.vals, v.diags
}

func (v *pv) errorf(id int, rule, format string, args ...any) {
	v.diags = errorf(v.diags, StmtPos(id), rule, format, args...)
}

// kpNeed is the number of keypath slots the interpreter indexes per
// operator; a shorter Kp slice panics inside the evaluator.
func kpNeed(op core.Op) int {
	switch {
	case op.IsArith():
		return 2
	case op == core.OpZip, op == core.OpUpsert, op == core.OpGather, op == core.OpPartition:
		return 2
	case op == core.OpScatter:
		return 3
	case op == core.OpProject:
		return 1
	case op.IsFold():
		return 1
	}
	return 0
}

// outNeed is the number of output attribute names the evaluator indexes.
// Zip and Cross additionally require exactly two (core.Validate's rule).
func outNeed(op core.Op) int {
	switch {
	case op == core.OpZip, op == core.OpCross:
		return 2
	case op == core.OpConstant, op == core.OpRange, op == core.OpProject,
		op == core.OpUpsert, op == core.OpPartition:
		return 1
	case op.IsArith(), op.IsFold():
		return 1
	}
	return 0
}

// structural checks one statement's shape-independent well-formedness,
// mirroring core.Validate plus the index bounds the evaluator assumes.
// It reports whether the statement is structurally sound.
func (v *pv) structural(i int, s *core.Stmt) bool {
	arity, known := core.Arity(s.Op)
	if !known {
		v.errorf(i, RuleUnknownOp, "unknown op %v", s.Op)
		return false
	}
	ok := true
	if arity >= 0 && len(s.Args) != arity {
		v.errorf(i, RuleArity, "%s: want %d args, have %d", s.Op, arity, len(s.Args))
		ok = false
	}
	if s.Op == core.OpRange {
		if len(s.Args) > 1 {
			v.errorf(i, RuleArity, "Range: at most one vector argument")
			ok = false
		}
		if len(s.Args) == 0 && s.Size <= 0 {
			v.errorf(i, RuleRangeSize, "Range: literal size must be positive")
			ok = false
		}
	}
	for _, a := range s.Args {
		if a < 0 || int(a) >= i {
			v.errorf(i, RuleDanglingRef, "%s: arg ref %d is not an earlier statement", s.Op, a)
			ok = false
		}
	}
	if (s.Op == core.OpLoad || s.Op == core.OpPersist) && s.Name == "" {
		v.errorf(i, RuleMissingName, "%s: missing storage name", s.Op)
		ok = false
	}
	if need := outNeed(s.Op); len(s.Out) < need {
		v.errorf(i, RuleOutCount, "%s: want %d output name(s), have %d", s.Op, need, len(s.Out))
		ok = false
	}
	if (s.Op == core.OpZip || s.Op == core.OpCross) && len(s.Out) != 2 {
		v.errorf(i, RuleOutCount, "%s: want exactly 2 output names, have %d", s.Op, len(s.Out))
		ok = false
	}
	if need := kpNeed(s.Op); len(s.Kp) < need {
		v.errorf(i, RuleKpCount, "%s: want %d keypath(s), have %d", s.Op, need, len(s.Kp))
		ok = false
	}
	return ok
}

// col mirrors evaluator.col: resolve operand arg's keypath to one
// attribute. The bool reports whether the column model is usable; a
// resolution that certainly fails at run time is diagnosed.
func (v *pv) col(i int, s *core.Stmt, arg int) (colInfo, bool) {
	src := v.vals[s.Args[arg]]
	if !src.Known {
		return colInfo{}, false
	}
	kp := s.Kp[arg]
	if kp == "" {
		if len(src.Names) != 1 {
			v.errorf(i, RuleSingleAttr,
				"%s: operand %d needs a single attribute, has %v", s.Op, arg, src.Names)
			return colInfo{}, false
		}
		return src.cols[src.Names[0]], true
	}
	c, ok := src.cols[kp]
	if !ok {
		v.errorf(i, RuleUnknownAttr,
			"%s: operand %d has no attribute %q (have %v)", s.Op, arg, kp, src.Names)
		return colInfo{}, false
	}
	return c, true
}

// copySubtree mirrors interp's copySubtree into the model.
func (v *pv) copySubtree(dst *Value, out string, src Value, kp string, i int, s *core.Stmt) {
	if kp == "" {
		if len(src.Names) == 1 {
			dst.set(out, src.cols[src.Names[0]])
			return
		}
		for _, name := range src.Names {
			dst.set(out+"."+name, src.cols[name])
		}
		return
	}
	rel, cols, ok := src.subtree(kp)
	if !ok {
		v.errorf(i, RuleUnknownAttr, "%s: no attribute %q (have %v)", s.Op, kp, src.Names)
		return
	}
	for j, r := range rel {
		name := out
		if r != "" {
			name = out + "." + r
		}
		dst.set(name, cols[j])
	}
}

// intIndexed diagnoses a column that the evaluator reads through Int():
// a materialized float column panics there. guarded means the read sits
// behind a Valid(i) check, in which case only a certainly-valid column is
// a certain failure.
func (v *pv) intIndexed(i int, s *core.Stmt, c colInfo, n int, guarded bool, what string) {
	if c.kind != vector.Float || n <= 0 {
		return
	}
	if guarded && !c.allValid {
		return
	}
	v.errorf(i, RuleFloatIndex, "%s: %s must be integer-kind, is float", s.Op, what)
}

// derive computes statement i's value model, mirroring evaluator.eval and
// diagnosing every failure the interpreter is certain to hit.
func (v *pv) derive(i int, s *core.Stmt) Value {
	arg := func(j int) Value { return v.vals[s.Args[j]] }
	switch s.Op {
	case core.OpLoad:
		if info, ok := v.persisted[s.Name]; ok {
			return info
		}
		if v.st == nil {
			return unknownVec
		}
		vec, err := v.st.LoadVector(s.Name)
		if err != nil {
			v.errorf(i, RuleMissingVec, "Load: %v", err)
			return unknownVec
		}
		return fromVector(vec)
	case core.OpPersist:
		v.persisted[s.Name] = arg(0)
		return arg(0)
	case core.OpConstant:
		out := newVec(1)
		kind := vector.Int
		if s.IsFloat {
			kind = vector.Float
		}
		out.set(s.Out[0], colInfo{kind: kind, allValid: true})
		return out
	case core.OpRange:
		n := s.Size
		if len(s.Args) == 1 {
			if !arg(0).Known {
				return unknownVec
			}
			n = arg(0).N
		}
		out := newVec(n)
		out.set(s.Out[0], colInfo{kind: vector.Int, allValid: true})
		return out
	case core.OpCross:
		if !arg(0).Known || !arg(1).Known {
			return unknownVec
		}
		out := newVec(arg(0).N * arg(1).N)
		out.set(s.Out[0], colInfo{kind: vector.Int, allValid: true})
		out.set(s.Out[1], colInfo{kind: vector.Int, allValid: true})
		return out
	case core.OpZip:
		v1, v2 := arg(0), arg(1)
		if !v1.Known || !v2.Known {
			return unknownVec
		}
		out := newVec(min(v1.N, v2.N))
		v.copySubtree(&out, s.Out[0], v1, s.Kp[0], i, s)
		v.copySubtree(&out, s.Out[1], v2, s.Kp[1], i, s)
		return out
	case core.OpProject:
		if !arg(0).Known {
			return unknownVec
		}
		out := newVec(arg(0).N)
		v.copySubtree(&out, s.Out[0], arg(0), s.Kp[0], i, s)
		return out
	case core.OpUpsert:
		v1 := arg(0)
		src, ok := v.col(i, s, 1)
		if !v1.Known || !ok {
			return unknownVec
		}
		srcN := arg(1).N
		out := newVec(v1.N)
		for _, name := range v1.Names {
			out.set(name, v1.cols[name])
		}
		switch {
		case srcN == v1.N:
			out.set(s.Out[0], src)
		case srcN == 1:
			// One-slot broadcast; both broadcast paths yield dense columns.
			out.set(s.Out[0], colInfo{kind: src.kind, allValid: true})
		default:
			v.errorf(i, RuleUpsertLen,
				"Upsert: attribute length %d does not match vector length %d", srcN, v1.N)
			return unknownVec
		}
		return out
	case core.OpGather:
		v1 := arg(0)
		pos, ok := v.col(i, s, 1)
		if ok {
			v.intIndexed(i, s, pos, arg(1).N, true, "position attribute")
		}
		if !v1.Known || !arg(1).Known {
			return unknownVec
		}
		out := newVec(arg(1).N)
		for _, name := range v1.Names {
			c := v1.cols[name]
			// Out-of-bounds and ε positions produce empty slots.
			out.set(name, colInfo{kind: c.kind})
		}
		return out
	case core.OpScatter:
		v1 := arg(0)
		pos, ok := v.col(i, s, 2)
		if ok && v1.Known {
			srcValid := len(v1.Names) > 0
			for _, name := range v1.Names {
				srcValid = srcValid && v1.cols[name].allValid
			}
			v.intIndexed(i, s, pos, v1.N, !srcValid || !pos.allValid, "position attribute")
		}
		if v1.Known && arg(2).Known && arg(2).N < v1.N {
			v.errorf(i, RuleScatterLen, "Scatter: %d positions for %d values", arg(2).N, v1.N)
		}
		if !v1.Known || !arg(1).Known {
			return unknownVec
		}
		out := newVec(arg(1).N)
		for _, name := range v1.Names {
			c := v1.cols[name]
			out.set(name, colInfo{kind: c.kind})
		}
		return out
	case core.OpMaterialize, core.OpBreak:
		return arg(0)
	case core.OpPartition:
		vals, okV := v.col(i, s, 0)
		pivots, okP := v.col(i, s, 1)
		if okV && arg(0).Known {
			v.intIndexed(i, s, vals, arg(0).N, false, "value attribute")
		}
		if okP && arg(1).Known {
			v.intIndexed(i, s, pivots, arg(1).N, false, "pivot attribute")
		}
		if !arg(0).Known {
			return unknownVec
		}
		out := newVec(arg(0).N)
		out.set(s.Out[0], colInfo{kind: vector.Int, allValid: true})
		return out
	case core.OpFoldSelect, core.OpFoldSum, core.OpFoldMin, core.OpFoldMax, core.OpFoldScan:
		return v.deriveFold(i, s)
	default:
		if s.Op.IsArith() {
			return v.deriveArith(i, s)
		}
		// structural() accepted the op, so the table knows it; reaching
		// here means the evaluator does not.
		v.errorf(i, RuleUnknownOp, "unsupported op %v", s.Op)
		return unknownVec
	}
}

func (v *pv) deriveFold(i int, s *core.Stmt) Value {
	src := v.vals[s.Args[0]]
	if !src.Known {
		return unknownVec
	}
	var val colInfo
	if s.FoldVal == "" {
		if len(src.Names) != 1 {
			v.errorf(i, RuleSingleAttr,
				"%s: needs a single value attribute, has %v", s.Op, src.Names)
			return unknownVec
		}
		val = src.cols[src.Names[0]]
	} else {
		var ok bool
		val, ok = src.cols[s.FoldVal]
		if !ok {
			v.errorf(i, RuleFoldValue,
				"%s: no value attribute %q (have %v)", s.Op, s.FoldVal, src.Names)
			return unknownVec
		}
	}
	if kp := s.Kp[0]; kp != "" {
		ctrl, ok := src.cols[kp]
		if !ok {
			v.errorf(i, RuleUnknownAttr,
				"%s: no fold attribute %q (have %v)", s.Op, kp, src.Names)
		} else if src.N >= 2 {
			// Run decomposition reads the control attribute through Int()
			// without a validity guard.
			v.intIndexed(i, s, ctrl, src.N, false, "fold control attribute")
		}
	}
	if s.Op == core.OpFoldSelect {
		// The selection predicate is read through Int() behind Valid().
		v.intIndexed(i, s, val, src.N, true, "selection attribute")
	}
	out := newVec(src.N)
	kind := val.kind
	if s.Op == core.OpFoldSelect {
		kind = vector.Int
	}
	// Fold outputs are run-aligned and ε-padded: never certainly dense.
	out.set(s.Out[0], colInfo{kind: kind})
	return out
}

func (v *pv) deriveArith(i int, s *core.Stmt) Value {
	a, okA := v.col(i, s, 0)
	b, okB := v.col(i, s, 1)
	if !okA || !okB {
		return unknownVec
	}
	isFloat := a.kind == vector.Float || b.kind == vector.Float
	switch s.Op {
	case core.OpModulo, core.OpBitShift, core.OpLogicalAnd, core.OpLogicalOr:
		if isFloat {
			v.errorf(i, RuleIntOpFloat, "%s: requires integer operands", s.Op)
			return unknownVec
		}
	}
	if !v.vals[s.Args[0]].Known || !v.vals[s.Args[1]].Known {
		return unknownVec
	}
	n1, n2 := v.vals[s.Args[0]].N, v.vals[s.Args[1]].N
	n := min(n1, n2)
	if n1 == 1 {
		n = n2
	} else if n2 == 1 {
		n = n1
	}
	out := newVec(n)
	kind := vector.Int
	if isFloat && !(s.Op == core.OpGreater || s.Op == core.OpEquals) {
		kind = vector.Float
	}
	out.set(s.Out[0], colInfo{kind: kind, allValid: a.allValid && b.allValid})
	return out
}
