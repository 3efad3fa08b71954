// Package compile is the Voodoo compiling backend (paper §3.1): it lowers
// Voodoo programs into kernel IR fragments, fusing operator chains into
// fully inlined loop nests and materializing only at fragment seams.
//
// The compiler implements the paper's key backend techniques:
//
//   - fragment formation with Extent/Intent derived from control-vector
//     run metadata (§3.1.1, "Controlling Parallelism");
//   - run metadata propagation through Divide/Modulo/Add (§3.1.1,
//     "Maintaining Run Metadata");
//   - empty-slot suppression: fold outputs occupy one slot per run plus
//     count metadata instead of ε-padded full-size vectors (§3.1.2);
//   - virtual scatter: a scatter whose positions derive from a Partition of
//     a generated control vector dissolves into index arithmetic (§3.1.3);
//   - predication as a compile-time flag on selection folds, and chunked
//     (vectorized) selection via the control vector's run length.
//
// Operator shapes outside the fused fast paths fall back to bulk steps
// (interpreter-style materializing evaluation), preserving semantics for
// arbitrary programs; the differential tests in this package rely on that.
package compile

import (
	"fmt"

	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

// expr is a per-element scalar expression over the logical index of a
// vector. Expression nodes are shared (the dataflow is a DAG), and the
// per-fragment emitter memoizes by node identity, which yields common
// subexpression elimination inside each fragment.
type expr interface {
	kind() vector.Kind
}

// eIdx is the logical element index itself.
type eIdx struct{}

func (eIdx) kind() vector.Kind { return vector.Int }

// theIdx is the shared index leaf; using one instance maximizes CSE hits.
var theIdx = &eIdx{}

// eConst is a literal.
type eConst struct {
	isF bool
	i   int64
	f   float64
}

func (e *eConst) kind() vector.Kind {
	if e.isF {
		return vector.Float
	}
	return vector.Int
}

func constI(v int64) *eConst   { return &eConst{i: v} }
func constF(v float64) *eConst { return &eConst{isF: true, f: v} }

// eGen is a generated control-vector value: meta.Value(idx). The run
// metadata rides along so folds can derive their loop structure from it.
type eGen struct {
	m vector.RunMeta
}

func (e *eGen) kind() vector.Kind { return vector.Int }

// eLoad reads buf[idx]. The read is sequential when idx is the logical
// index, or when seq says idx is affine in the work item's iteration.
type eLoad struct {
	buf int
	k   vector.Kind
	idx expr
	seq bool
}

func (e *eLoad) kind() vector.Kind { return e.k }

// eLoadValid reads the validity of buf[idx] as 0/1 and treats out-of-bounds
// indices as invalid (matching Gather's ε semantics).
type eLoadValid struct {
	buf int
	idx expr
}

func (e *eLoadValid) kind() vector.Kind { return vector.Int }

// eBin applies a binary ALU op; comparisons yield Int regardless of operand
// kinds.
type eBin struct {
	op   kernel.BinOp
	a, b expr
}

func (e *eBin) kind() vector.Kind {
	switch e.op {
	case kernel.BGt, kernel.BGe, kernel.BEq:
		return vector.Int
	}
	if e.a.kind() == vector.Float || e.b.kind() == vector.Float {
		return vector.Float
	}
	return vector.Int
}

// eSel is branch-free selection: c != 0 ? a : b.
type eSel struct {
	c, a, b expr
}

func (e *eSel) kind() vector.Kind {
	if e.a.kind() == vector.Float || e.b.kind() == vector.Float {
		return vector.Float
	}
	return vector.Int
}

// eCast converts between the two scalar kinds.
type eCast struct {
	toF bool
	a   expr
}

func (e *eCast) kind() vector.Kind {
	if e.toF {
		return vector.Float
	}
	return vector.Int
}

// metaBounds returns the inclusive value range a generated attribute takes
// over indices [0, n).
func metaBounds(m vector.RunMeta, n int) (int64, int64) {
	if n <= 0 {
		return 0, -1
	}
	if m.Cap > 0 {
		return 0, m.Cap - 1
	}
	last := m.Value(n - 1)
	first := m.From
	if m.StepNum < 0 {
		return last, first
	}
	return first, last
}

// genMetaOf returns the run metadata of an expression if it is a generated
// control vector (possibly behind metadata-preserving arithmetic).
func genMetaOf(e expr) (vector.RunMeta, bool) {
	g, ok := e.(*eGen)
	if !ok {
		return vector.RunMeta{}, false
	}
	return g.m, true
}

// binExpr builds a binary expression, folding control-vector metadata
// through the operation when possible (paper §3.1: "Dividing a vector by a
// constant x is equivalent to dividing step by x. A modulo by x is setting
// the cap to x.").
func binExpr(op kernel.BinOp, a, b expr) expr {
	if g, ok := a.(*eGen); ok {
		if c, ok2 := b.(*eConst); ok2 && !c.isF {
			if m, ok3 := propagateMeta(op, g.m, c.i); ok3 {
				return &eGen{m: m}
			}
		}
	}
	// x > x is 0 for every value, NaN included: what a count sums (rel
	// lowers it as NOT (x > x) = (0 == 0), 1 wherever x is not ε). The fold
	// drops x, so only where x cannot fault: the interpreter evaluates it.
	if a == b && op == kernel.BGt && !mayFault(a) {
		return constI(0)
	}
	// Constant folding keeps emitted kernels lean. An integer x ± 0 is x;
	// an integer x * 0 is 0 where x cannot fault: the liveness anchors rel
	// adds (x + live*0) and the key shifts it subtracts (x - 0).
	if cb, ok := b.(*eConst); ok && !cb.isF && cb.i == 0 && a.kind() == vector.Int {
		switch {
		case op == kernel.BAdd || op == kernel.BSub:
			return a
		case op == kernel.BMul && !mayFault(a):
			return b
		}
	}
	// (x > y) OR (x == y) is x >= y, one instruction instead of three, for
	// integers and floats alike: with a NaN operand both sides are 0.
	if op == kernel.BOr {
		if ge, ok := geOf(a, b); ok {
			return ge
		}
		if ge, ok := geOf(b, a); ok {
			return ge
		}
	}
	if ca, ok := a.(*eConst); ok && !ca.isF {
		if cb, ok2 := b.(*eConst); ok2 && !cb.isF {
			if v, ok3 := foldConstI(op, ca.i, cb.i); ok3 {
				return constI(v)
			}
		}
	}
	return &eBin{op: op, a: a, b: b}
}

// geOf returns x >= y when gt is x > y and eq is x == y or y == x over the
// same operand nodes.
func geOf(gt, eq expr) (expr, bool) {
	g, ok1 := gt.(*eBin)
	e, ok2 := eq.(*eBin)
	if !ok1 || !ok2 || g.op != kernel.BGt || e.op != kernel.BEq {
		return nil, false
	}
	if (e.a == g.a && e.b == g.b) || (e.a == g.b && e.b == g.a) {
		return &eBin{op: kernel.BGe, a: g.a, b: g.b}, true
	}
	return nil, false
}

// mayFault reports whether evaluating e can fail at run time: it divides
// or takes a modulo by something other than a nonzero constant, or holds a
// placeholder whose computation is not known here.
func mayFault(e expr) bool {
	switch x := e.(type) {
	case *eIdx, *eConst, *eGen, *ePos, *eGID, *eIV:
		return false
	case *eLoad:
		return mayFault(x.idx)
	case *eLoadValid:
		return mayFault(x.idx)
	case *eBin:
		if x.op == kernel.BDiv || x.op == kernel.BMod {
			if c, ok := x.b.(*eConst); !ok || (c.i == 0 && c.f == 0) {
				return true
			}
		}
		return mayFault(x.a) || mayFault(x.b)
	case *eSel:
		return mayFault(x.c) || mayFault(x.a) || mayFault(x.b)
	case *eCast:
		return mayFault(x.a)
	}
	return true
}

func propagateMeta(op kernel.BinOp, m vector.RunMeta, c int64) (vector.RunMeta, bool) {
	switch op {
	case kernel.BDiv:
		return m.Divide(c)
	case kernel.BMod:
		return m.Modulo(c)
	case kernel.BAdd:
		if m.Cap == 0 {
			out := m
			out.From += c
			return out, true
		}
	case kernel.BSub:
		if m.Cap == 0 {
			out := m
			out.From -= c
			return out, true
		}
	case kernel.BMul:
		// floor(i*n/d)*c folds into the step only for integral steps.
		if m.Cap == 0 && m.Den() == 1 {
			return vector.RunMeta{From: m.From * c, StepNum: m.StepNum * c, StepDen: 1}, true
		}
	}
	return vector.RunMeta{}, false
}

func foldConstI(op kernel.BinOp, a, b int64) (int64, bool) {
	switch op {
	case kernel.BAdd:
		return a + b, true
	case kernel.BSub:
		return a - b, true
	case kernel.BMul:
		return a * b, true
	case kernel.BDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case kernel.BMod:
		if b == 0 {
			return 0, false
		}
		m := a % b
		if m < 0 {
			m += b
		}
		return m, true
	case kernel.BEq:
		if a == b {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// emitter lowers expressions into a fragment's instruction stream with
// node-identity memoization (per-fragment CSE).
type emitter struct {
	next  kernel.Reg
	memo  map[expr]kernel.Reg
	out   *[]kernel.Instr
	idxAt kernel.Reg // register holding the logical index (usually RegIdx)
}

func newEmitter(out *[]kernel.Instr) *emitter {
	return &emitter{next: kernel.FirstFree, memo: map[expr]kernel.Reg{}, out: out, idxAt: kernel.RegIdx}
}

// alloc reserves a fresh virtual register.
func (em *emitter) alloc() kernel.Reg {
	r := em.next
	em.next++
	return r
}

// to redirects emission into a different instruction list (e.g. the second
// loop of a fragment); the register space and memo persist, but memoized
// values computed in earlier loops remain visible only because loop bodies
// of a fragment share the work item's register file.
func (em *emitter) to(out *[]kernel.Instr) {
	em.out = out
}

func (em *emitter) push(in kernel.Instr) {
	*em.out = append(*em.out, in)
}

// emit lowers e and returns the register holding its value.
func (em *emitter) emit(e expr) kernel.Reg {
	if r, ok := em.memo[e]; ok {
		return r
	}
	r := em.emitNew(e)
	em.memo[e] = r
	return r
}

// invalidateIdx must be called when the meaning of the index register
// changes (new loop over a different index space): all memoized values are
// dropped because they may depend on it.
func (em *emitter) invalidateIdx() {
	em.memo = map[expr]kernel.Reg{}
}

func (em *emitter) emitNew(e expr) kernel.Reg {
	switch x := e.(type) {
	case *eIdx:
		return em.idxAt
	case *eGID:
		return kernel.RegGID
	case *eIV:
		return kernel.RegIV
	case *ePos:
		// thePos must have been bound in the memo by the fold emitter;
		// reaching here means a pipeline leaf escaped its pipeline.
		cerrf("internal: unbound selected-position leaf")
	case *ePartRef:
		cerrf("internal: %T must be resolved before emission", e)
	case *eConst:
		r := em.alloc()
		if x.isF {
			em.push(kernel.Instr{Op: kernel.IConstF, Dst: r, FImm: x.f})
		} else {
			em.push(kernel.Instr{Op: kernel.IConstI, Dst: r, Imm: x.i})
		}
		return r
	case *eGen:
		return em.emitGen(x)
	case *eLoad:
		idx := em.emit(x.idx)
		r := em.alloc()
		em.push(kernel.Instr{Op: kernel.ILoad, Dst: r, A: idx, Buf: x.buf,
			Float: x.k == vector.Float, Seq: x.seq || x.idx == expr(theIdx)})
		return r
	case *eLoadValid:
		idx := em.emit(x.idx)
		r := em.alloc()
		em.push(kernel.Instr{Op: kernel.ILoadValid, Dst: r, A: idx, Buf: x.buf,
			Seq: x.idx == expr(theIdx)})
		return r
	case *eBin:
		return em.emitBin(x)
	case *eSel:
		c := em.emitAs(x.c, vector.Int)
		isF := e.kind() == vector.Float
		a := em.emitAs(x.a, e.kind())
		b := em.emitAs(x.b, e.kind())
		r := em.alloc()
		em.push(kernel.Instr{Op: kernel.ISel, Dst: r, A: c, B: a, C: b, Float: isF})
		return r
	case *eCast:
		a := em.emit(x.a)
		r := em.alloc()
		if x.toF {
			em.push(kernel.Instr{Op: kernel.ICastIF, Dst: r, A: a})
		} else {
			em.push(kernel.Instr{Op: kernel.ICastFI, Dst: r, A: a})
		}
		return r
	}
	// Invariant violation: expr is a closed set of types this package
	// constructs itself; an unknown type is a compiler bug, recovered into
	// *exec.PanicError at the plan-step boundary.
	panic(fmt.Sprintf("compile: unknown expr %T", e))
}

// emitAs emits e and converts it to kind k if necessary.
func (em *emitter) emitAs(e expr, k vector.Kind) kernel.Reg {
	if e.kind() == k {
		return em.emit(e)
	}
	if c, ok := e.(*eConst); ok && k == vector.Float {
		return em.emit(constF(float64(c.i)))
	}
	return em.emit(&eCast{toF: k == vector.Float, a: e})
}

// emitGen computes (from + floor(idx*num/den)) mod cap from the run
// metadata — exact integer arithmetic throughout, matching the hand-written
// code the paper compares against.
func (em *emitter) emitGen(g *eGen) kernel.Reg {
	return em.emit(genFormula(g.m))
}

func (em *emitter) emitBin(x *eBin) kernel.Reg {
	resKind := x.kind()
	opKind := resKind
	// Comparisons produce Int but may compare floats.
	if x.a.kind() == vector.Float || x.b.kind() == vector.Float {
		opKind = vector.Float
	}
	a := em.emitAs(x.a, opKind)
	b := em.emitAs(x.b, opKind)
	r := em.alloc()
	em.push(kernel.Instr{Op: kernel.IBin, BOp: x.op, Dst: r, A: a, B: b,
		Float: opKind == vector.Float})
	if opKind == vector.Float && resKind == vector.Int {
		c := em.alloc()
		em.push(kernel.Instr{Op: kernel.ICastFI, Dst: c, A: r})
		return c
	}
	return r
}
