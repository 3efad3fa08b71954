// Package interp is the Voodoo interpreter backend (paper §3.2): a classic
// bulk processor that materializes every intermediate vector. It is not
// built for speed; it is the semantic reference that the compiling backend
// and the relational frontend are differentially tested against, and every
// intermediate is inspectable.
package interp

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"voodoo/internal/core"
	"voodoo/internal/exec"
	"voodoo/internal/trace"
	"voodoo/internal/vector"
	"voodoo/internal/verify"
)

// Storage provides the persistent vectors that Load reads and Persist
// writes.
type Storage interface {
	// LoadVector returns the vector stored under name.
	LoadVector(name string) (*vector.Vector, error)
	// PersistVector stores v under name.
	PersistVector(name string, v *vector.Vector) error
}

// MemStorage is an in-memory Storage, convenient for tests and examples.
type MemStorage map[string]*vector.Vector

// LoadVector implements Storage.
func (m MemStorage) LoadVector(name string) (*vector.Vector, error) {
	v, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("interp: no persistent vector %q", name)
	}
	return v, nil
}

// PersistVector implements Storage.
func (m MemStorage) PersistVector(name string, v *vector.Vector) error {
	m[name] = v
	return nil
}

// Result holds the evaluated value of every statement of a program.
type Result struct {
	Values []*vector.Vector
	// Trace is the run's execution trace when Opts.Trace asked for one,
	// owned by the caller.
	Trace *trace.Trace

	// arena owns the pooled storage behind Values when the run drew from
	// Opts.Pool; nil otherwise.
	arena *vector.Arena
}

// Value returns the vector computed for statement r.
func (r *Result) Value(ref core.Ref) *vector.Vector { return r.Values[ref] }

// Release recycles the pooled storage behind a pooled run's values. The
// result's vectors are invalid afterwards; Values is nilled so stale reads
// fail loudly instead of observing another query's data. Safe on nil
// results and results from unpooled runs, and idempotent.
func (r *Result) Release() {
	if r == nil || r.arena == nil {
		return
	}
	r.arena.Release()
	r.arena = nil
	r.Values = nil
}

type evalErr struct{ err error }

func errf(format string, args ...any) {
	panic(evalErr{fmt.Errorf("interp: "+format, args...)})
}

// Opts configures one Run. The zero value is a plain heap-allocating,
// untraced run.
type Opts struct {
	// Pool, when set, backs every intermediate with a fresh arena of the
	// pool. The arena is attached to the result: the caller must call
	// Result.Release once done with the values (on error it is released
	// before returning).
	Pool *vector.Pool
	// Trace records one step per statement — wall time, output length,
	// materialized bytes: the bulk-processing profile the compiling
	// backend's fused fragments are measured against — into Result.Trace,
	// streaming each to the context's trace.Observer as it completes.
	Trace bool
}

// Run evaluates the program against st and returns every statement's
// value. Cancellation is cooperative, checked at every statement boundary
// (the interpreter materializes per statement, so statements are its
// natural unit of work), and a run that misses its deadline is counted
// once, here, as compile.Plan.RunWith counts a compiled one. Any panic
// escaping a statement's evaluation — a malformed program tripping an
// internal invariant — is recovered into a *exec.PanicError naming the
// statement, so a bad program fails its query instead of the process.
func Run(ctx context.Context, p *core.Program, st Storage, o Opts) (res *Result, err error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ar := o.Pool.NewArena()
	// Registered first so it sees the final error, the verifier
	// cross-check's included.
	defer func() {
		if err != nil {
			ar.Release()
		}
	}()
	// Verification cross-check (difftest's front line, and the -verify
	// daemon path): algebra-level Error diagnostics are sound — the
	// interpreter is guaranteed to reject such a program — so the program
	// still executes, and a clean run after an Error diagnostic indicts
	// the verifier itself.
	var verifyDiag *verify.Diagnostic
	if verify.Enabled() {
		for _, d := range verify.Program(p, st) {
			if d.Level == verify.Error {
				verifyDiag = &d
				break
			}
		}
	}
	defer func() {
		if err == nil && verifyDiag != nil {
			verify.FailuresTotal.Inc()
			res, err = nil, fmt.Errorf("interp: program executed cleanly despite verifier error (%s) — verifier false positive", verifyDiag)
		}
	}()
	start := time.Now()
	defer func() {
		trace.CountQuery(time.Since(start))
		exec.NoteDeadline(err)
	}()
	var tr *trace.Trace
	if o.Trace {
		tr = &trace.Trace{Backend: "interpreted", OnStep: trace.ObserverFrom(ctx)}
	}
	cur := -1
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(evalErr); ok {
				res, err = nil, e.err
				return
			}
			res, err = nil, exec.NewPanicError(
				fmt.Sprintf("interp stmt %d", cur), r, debug.Stack())
		}
	}()
	e := &evaluator{st: st, vals: make([]*vector.Vector, len(p.Stmts)), ar: ar}
	for i := range p.Stmts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cur = i
		t0 := time.Now()
		e.vals[i] = e.eval(&p.Stmts[i])
		if tr != nil {
			tr.Add(traceStmt(&p.Stmts[i], e.vals[i], time.Since(t0)))
		}
	}
	if tr != nil {
		var alloc int64
		for _, v := range e.vals {
			alloc += vecBytes(v)
		}
		tr.AllocBytes = alloc
		tr.Finish(time.Since(start))
	}
	return &Result{Values: e.vals, Trace: tr, arena: ar}, nil
}

// Eval evaluates one statement with interpreter semantics over args, the
// values of its operands in order; s.Args is ignored. It is the compiling
// backend's bulk step: a piece of a plan run, not a query, so it counts,
// traces and verifies nothing. Every intermediate is backed by ar (nil
// draws from the heap) and the result aliases it. An operand the statement
// cannot evaluate is returned as an error; any other panic propagates to
// the caller, which isolates it.
func Eval(s core.Stmt, args []*vector.Vector, ar *vector.Arena) (out *vector.Vector, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(evalErr)
			if !ok {
				panic(r)
			}
			out, err = nil, e.err
		}
	}()
	s.Args = make([]core.Ref, len(args))
	for i := range s.Args {
		s.Args[i] = core.Ref(i)
	}
	e := &evaluator{vals: args, ar: ar}
	return e.eval(&s), nil
}

// traceStmt builds the trace record of one interpreted statement. The
// interpreter materializes every output in full, so each statement's
// materialized bytes are simply its output size — the bulk cost the
// compiler's fusion avoids.
func traceStmt(s *core.Stmt, out *vector.Vector, wall time.Duration) trace.Step {
	ts := trace.Step{
		Kind: trace.KindStmt, Name: s.Op.String(),
		Stmts: []int{int(s.ID)}, WallNS: wall.Nanoseconds(),
	}
	if out != nil {
		ts.Items = int64(out.Len())
		ts.MaterializedBytes = vecBytes(out)
		ts.AllocBytes = ts.MaterializedBytes
	}
	switch s.Op {
	case core.OpFoldSum, core.OpFoldMin, core.OpFoldMax, core.OpFoldSelect, core.OpFoldScan:
		ts.FoldRuns = countRuns(out)
	case core.OpScatter:
		ts.ScatterItems = ts.Items
	}
	return ts
}

// vecBytes is the materialized size of a vector: 8 bytes per scalar plus a
// validity byte per slot for columns that carry ε.
func vecBytes(v *vector.Vector) int64 {
	if v == nil {
		return 0
	}
	var b int64
	for _, name := range v.Names() {
		b += int64(v.Len()) * 8
		if c := v.Col(name); c != nil && !c.AllValid() {
			b += int64(v.Len())
		}
	}
	return b
}

// countRuns counts the non-ε slots of a fold output — one per produced
// run, since the interpreter writes each run's aggregate at the run start
// and leaves the rest ε.
func countRuns(v *vector.Vector) int64 {
	if v == nil || len(v.Names()) != 1 {
		return 0
	}
	c := v.Col(v.Names()[0])
	if c == nil {
		return 0
	}
	var runs int64
	for i := 0; i < c.Len(); i++ {
		if c.Valid(i) {
			runs++
		}
	}
	return runs
}

type evaluator struct {
	st   Storage
	vals []*vector.Vector
	// ar, when non-nil, backs every intermediate the evaluator
	// materializes. Persisted vectors are deep-copied off it (storage
	// outlives the run); loaded vectors are never owned by it.
	ar *vector.Arena
}

func (e *evaluator) arg(s *core.Stmt, i int) *vector.Vector { return e.vals[s.Args[i]] }

// col resolves operand i's keypath to a single column ("" = the operand's
// single attribute).
func (e *evaluator) col(s *core.Stmt, i int) *vector.Column {
	v := e.arg(s, i)
	kp := s.Kp[i]
	if kp == "" {
		return v.SingleCol()
	}
	c := v.Col(kp)
	if c == nil {
		errf("%s: operand %d has no attribute %q (have %v)", s.Op, i, kp, v.Names())
	}
	return c
}

func (e *evaluator) eval(s *core.Stmt) *vector.Vector {
	switch s.Op {
	case core.OpLoad:
		v, err := e.st.LoadVector(s.Name)
		if err != nil {
			errf("%v", err)
		}
		return v
	case core.OpPersist:
		v := e.arg(s, 0)
		if e.ar != nil {
			// Persisted vectors outlive the run; detach them from the
			// arena so Release cannot recycle storage under them.
			v = vector.UnpooledCopy(v)
		}
		if err := e.st.PersistVector(s.Name, v); err != nil {
			errf("%v", err)
		}
		return v
	case core.OpConstant:
		out := vector.New(1)
		if s.IsFloat {
			out.Set(s.Out[0], vector.NewFloat([]float64{s.FloatVal}))
		} else {
			out.Set(s.Out[0], vector.NewInt([]int64{s.IntVal}))
		}
		return out
	case core.OpRange:
		n := s.Size
		if len(s.Args) == 1 {
			n = e.arg(s, 0).Len()
		}
		meta := vector.Step(s.IntVal, s.Step)
		// The interpreter is a bulk processor: materialize even
		// generated vectors so every intermediate is inspectable.
		return vector.New(n).Set(s.Out[0], e.ar.Materialize(vector.NewGenerated(n, meta)))
	case core.OpCross:
		return e.evalCross(s)
	case core.OpZip:
		return e.evalZip(s)
	case core.OpProject:
		out := vector.New(e.arg(s, 0).Len())
		copySubtree(out, s.Out[0], e.arg(s, 0), s.Kp[0], s)
		return out
	case core.OpUpsert:
		return e.evalUpsert(s)
	case core.OpGather:
		return e.evalGather(s)
	case core.OpScatter:
		return e.evalScatter(s)
	case core.OpMaterialize, core.OpBreak:
		// Identity semantics; Break/Materialize only direct backends.
		out := vector.New(e.arg(s, 0).Len())
		for _, name := range e.arg(s, 0).Names() {
			out.Set(name, e.ar.Materialize(e.arg(s, 0).Col(name)))
		}
		return out
	case core.OpPartition:
		return e.evalPartition(s)
	case core.OpFoldSelect, core.OpFoldSum, core.OpFoldMin, core.OpFoldMax, core.OpFoldScan:
		return e.evalFold(s)
	default:
		if s.Op.IsArith() {
			return e.evalArith(s)
		}
		errf("unsupported op %v", s.Op)
		return nil
	}
}

// copySubtree copies the attribute(s) designated by src.kp into dst under
// the name out (nested attributes become out.<rel>).
func copySubtree(dst *vector.Vector, out string, src *vector.Vector, kp string, s *core.Stmt) {
	if kp == "" {
		if len(src.Names()) == 1 {
			dst.Set(out, src.Col(src.Names()[0]))
			return
		}
		for _, name := range src.Names() {
			dst.Set(out+"."+name, src.Col(name))
		}
		return
	}
	rel, cols, ok := src.Subtree(kp)
	if !ok {
		errf("%s: no attribute %q (have %v)", s.Op, kp, src.Names())
	}
	for i, r := range rel {
		name := out
		if r != "" {
			name = out + "." + r
		}
		dst.Set(name, cols[i])
	}
}

func (e *evaluator) evalZip(s *core.Stmt) *vector.Vector {
	v1, v2 := e.arg(s, 0), e.arg(s, 1)
	n := min(v1.Len(), v2.Len())
	out := vector.New(n)
	zipSide := func(outName string, src *vector.Vector, kp string) {
		tmp := vector.New(src.Len())
		copySubtree(tmp, outName, src, kp, s)
		for _, name := range tmp.Names() {
			c := tmp.Col(name)
			if c.Len() != n {
				c = c.Slice(0, n)
			}
			out.Set(name, c)
		}
	}
	zipSide(s.Out[0], v1, s.Kp[0])
	zipSide(s.Out[1], v2, s.Kp[1])
	return out
}

func (e *evaluator) evalUpsert(s *core.Stmt) *vector.Vector {
	v1 := e.arg(s, 0)
	src := e.col(s, 1)
	out := v1.Clone()
	switch {
	case src.Len() == v1.Len():
		out.Set(s.Out[0], src)
	case src.Len() == 1:
		// Broadcast the one-slot operand.
		if src.Kind() == vector.Int {
			out.Set(s.Out[0], vector.NewConst(v1.Len(), src.Int(0)))
		} else {
			vals := e.ar.Floats(v1.Len())
			for i := range vals {
				vals[i] = src.Float(0)
			}
			out.Set(s.Out[0], vector.NewFloat(vals))
		}
	default:
		errf("Upsert: attribute length %d does not match vector length %d", src.Len(), v1.Len())
	}
	return out
}

func (e *evaluator) evalCross(s *core.Stmt) *vector.Vector {
	n1, n2 := e.arg(s, 0).Len(), e.arg(s, 1).Len()
	n := n1 * n2
	a := e.ar.Ints(n)
	b := e.ar.Ints(n)
	for i := 0; i < n; i++ {
		a[i] = int64(i / n2)
		b[i] = int64(i % n2)
	}
	return vector.New(n).Set(s.Out[0], vector.NewInt(a)).Set(s.Out[1], vector.NewInt(b))
}

func (e *evaluator) evalArith(s *core.Stmt) *vector.Vector {
	a, b := e.col(s, 0), e.col(s, 1)
	n := arithLen(a.Len(), b.Len(), s)
	isFloat := a.Kind() == vector.Float || b.Kind() == vector.Float
	switch s.Op {
	case core.OpModulo, core.OpBitShift, core.OpLogicalAnd, core.OpLogicalOr:
		if isFloat {
			errf("%s: requires integer operands", s.Op)
		}
	}
	out := vector.New(n)
	ai := func(i int) int { return i % a.Len() }
	bi := func(i int) int { return i % b.Len() }

	valid := func(i int) bool { return a.Valid(ai(i)) && b.Valid(bi(i)) }
	anyEmpty := !a.AllValid() || !b.AllValid()

	if isFloat && !intResult(s.Op) {
		vals := e.ar.Floats(n)
		res := vector.NewFloat(vals)
		for i := 0; i < n; i++ {
			if anyEmpty && !valid(i) {
				res.SetEmpty(i)
				continue
			}
			vals[i] = floatArith(s.Op, a.Float(ai(i)), b.Float(bi(i)), s)
		}
		out.Set(s.Out[0], res)
		return out
	}
	vals := e.ar.Ints(n)
	res := vector.NewInt(vals)
	for i := 0; i < n; i++ {
		if anyEmpty && !valid(i) {
			res.SetEmpty(i)
			continue
		}
		if isFloat {
			// Comparison of floats yields an integer truth value.
			vals[i] = boolInt(cmpFloat(s.Op, a.Float(ai(i)), b.Float(bi(i))))
			continue
		}
		vals[i] = intArith(s.Op, a.Int(ai(i)), b.Int(bi(i)), s)
	}
	out.Set(s.Out[0], res)
	return out
}

func arithLen(n1, n2 int, s *core.Stmt) int {
	// Per Table 2 the output of data-parallel operators has the size of
	// the smaller input; one-slot vectors broadcast.
	if n1 == 1 {
		return n2
	}
	if n2 == 1 {
		return n1
	}
	return min(n1, n2)
}

func intResult(op core.Op) bool { return op == core.OpGreater || op == core.OpEquals }

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpFloat(op core.Op, a, b float64) bool {
	if op == core.OpGreater {
		return a > b
	}
	return a == b
}

func floatArith(op core.Op, a, b float64, s *core.Stmt) float64 {
	switch op {
	case core.OpAdd:
		return a + b
	case core.OpSubtract:
		return a - b
	case core.OpMultiply:
		return a * b
	case core.OpDivide:
		if b == 0 {
			errf("Divide: division by zero")
		}
		return a / b
	}
	errf("%s: unsupported on floats", op)
	return 0
}

func intArith(op core.Op, a, b int64, s *core.Stmt) int64 {
	switch op {
	case core.OpAdd:
		return a + b
	case core.OpSubtract:
		return a - b
	case core.OpMultiply:
		return a * b
	case core.OpDivide:
		if b == 0 {
			errf("Divide: division by zero")
		}
		return a / b
	case core.OpModulo:
		if b == 0 {
			errf("Modulo: division by zero")
		}
		m := a % b
		if m < 0 {
			m += b
		}
		return m
	case core.OpBitShift:
		if b >= 0 {
			return a << uint(b)
		}
		return a >> uint(-b)
	case core.OpLogicalAnd:
		return boolInt(a != 0 && b != 0)
	case core.OpLogicalOr:
		return boolInt(a != 0 || b != 0)
	case core.OpGreater:
		return boolInt(a > b)
	case core.OpEquals:
		return boolInt(a == b)
	}
	errf("%s: not an arithmetic op", op)
	return 0
}

func (e *evaluator) evalGather(s *core.Stmt) *vector.Vector {
	v1 := e.arg(s, 0)
	pos := e.col(s, 1)
	n := pos.Len()
	out := vector.New(n)
	for _, name := range v1.Names() {
		src := v1.Col(name)
		var dst *vector.Column
		if src.Kind() == vector.Int {
			dst = e.ar.EmptyInt(n)
		} else {
			dst = e.ar.EmptyFloat(n)
		}
		for i := 0; i < n; i++ {
			if !pos.Valid(i) {
				continue
			}
			p := pos.Int(i)
			// Out-of-bounds positions produce empty slots (Table 2).
			if p < 0 || p >= int64(src.Len()) || !src.Valid(int(p)) {
				continue
			}
			if src.Kind() == vector.Int {
				dst.SetInt(i, src.Int(int(p)))
			} else {
				dst.SetFloat(i, src.Float(int(p)))
			}
		}
		out.Set(name, dst)
	}
	return out
}

func (e *evaluator) evalScatter(s *core.Stmt) *vector.Vector {
	v1 := e.arg(s, 0)
	n := e.arg(s, 1).Len()
	pos := e.col(s, 2)
	if pos.Len() < v1.Len() {
		errf("Scatter: %d positions for %d values", pos.Len(), v1.Len())
	}
	out := vector.New(n)
	for _, name := range v1.Names() {
		src := v1.Col(name)
		var dst *vector.Column
		if src.Kind() == vector.Int {
			dst = e.ar.EmptyInt(n)
		} else {
			dst = e.ar.EmptyFloat(n)
		}
		for i := 0; i < src.Len(); i++ {
			if !pos.Valid(i) || !src.Valid(i) {
				continue
			}
			p := pos.Int(i)
			if p < 0 || p >= int64(n) {
				continue
			}
			// In-order writes; later values win on conflict.
			if src.Kind() == vector.Int {
				dst.SetInt(int(p), src.Int(i))
			} else {
				dst.SetFloat(int(p), src.Float(i))
			}
		}
		out.Set(name, dst)
	}
	return out
}

func (e *evaluator) evalPartition(s *core.Stmt) *vector.Vector {
	vals, pivots := e.col(s, 0), e.col(s, 1)
	pv := make([]int64, pivots.Len())
	for i := range pv {
		pv[i] = pivots.Int(i)
	}
	if !slices.IsSorted(pv) {
		errf("Partition: pivot list must be sorted")
	}
	// Partition id = number of pivots strictly less than the value, so a
	// pivot list [0..card) maps a value in [0..card) to itself. A stable
	// counting sort by id: starts[p+1] counts partition p, then sums to
	// partition p's first position.
	pid := make([]int, vals.Len())
	starts := make([]int, len(pv)+2)
	for i := range pid {
		pid[i], _ = slices.BinarySearch(pv, vals.Int(i))
		starts[pid[i]+1]++
	}
	for p := 1; p < len(starts); p++ {
		starts[p] += starts[p-1]
	}
	out := e.ar.Ints(len(pid))
	for i, p := range pid {
		out[i] = int64(starts[p])
		starts[p]++
	}
	return vector.New(len(pid)).Set(s.Out[0], vector.NewInt(out))
}

// runs decomposes the fold control attribute into maximal runs of adjacent
// equal values. An empty keypath means a single global run.
func runs(v *vector.Vector, foldKp string, n int, s *core.Stmt) [][2]int {
	if foldKp == "" {
		return [][2]int{{0, n}}
	}
	c := v.Col(foldKp)
	if c == nil {
		errf("%s: no fold attribute %q (have %v)", s.Op, foldKp, v.Names())
	}
	var rs [][2]int
	start := 0
	for i := 1; i < n; i++ {
		if c.Int(i) != c.Int(i-1) {
			rs = append(rs, [2]int{start, i})
			start = i
		}
	}
	if n > 0 {
		rs = append(rs, [2]int{start, n})
	}
	return rs
}

func (e *evaluator) evalFold(s *core.Stmt) *vector.Vector {
	v := e.arg(s, 0)
	n := v.Len()
	val := v.Col(s.FoldVal)
	if s.FoldVal == "" {
		val = v.SingleCol()
	}
	if val == nil {
		errf("%s: no value attribute %q (have %v)", s.Op, s.FoldVal, v.Names())
	}
	rs := runs(v, s.Kp[0], n, s)
	out := vector.New(n)

	if s.Op == core.OpFoldSelect {
		dst := e.ar.EmptyInt(n)
		for _, r := range rs {
			cursor := r[0]
			for i := r[0]; i < r[1]; i++ {
				if val.Valid(i) && val.Int(i) != 0 {
					dst.SetInt(cursor, int64(i))
					cursor++
				}
			}
		}
		return out.Set(s.Out[0], dst)
	}

	isFloat := val.Kind() == vector.Float
	var dst *vector.Column
	if isFloat {
		dst = e.ar.EmptyFloat(n)
	} else {
		dst = e.ar.EmptyInt(n)
	}

	if s.Op == core.OpFoldScan {
		for _, r := range rs {
			var accI int64
			var accF float64
			for i := r[0]; i < r[1]; i++ {
				if !val.Valid(i) {
					continue
				}
				if isFloat {
					accF += val.Float(i)
					dst.SetFloat(i, accF)
				} else {
					accI += val.Int(i)
					dst.SetInt(i, accI)
				}
			}
		}
		return out.Set(s.Out[0], dst)
	}

	for _, r := range rs {
		var accI int64
		var accF float64
		any := false
		for i := r[0]; i < r[1]; i++ {
			if !val.Valid(i) {
				continue
			}
			vi, vf := int64(0), 0.0
			if isFloat {
				vf = val.Float(i)
			} else {
				vi = val.Int(i)
			}
			if !any {
				accI, accF, any = vi, vf, true
				continue
			}
			switch s.Op {
			case core.OpFoldSum:
				accI += vi
				accF += vf
			case core.OpFoldMin:
				accI = min(accI, vi)
				accF = min(accF, vf)
			case core.OpFoldMax:
				accI = max(accI, vi)
				accF = max(accF, vf)
			}
		}
		if !any {
			continue // a run with no values leaves its slot ε
		}
		if isFloat {
			dst.SetFloat(r[0], accF)
		} else {
			dst.SetInt(r[0], accI)
		}
	}
	return out.Set(s.Out[0], dst)
}
