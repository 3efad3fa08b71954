// Package difftest cross-validates the two Voodoo execution backends
// against each other: a seeded generator produces random but
// deterministic Voodoo programs over the Table 2 vocabulary
// (data-parallel arithmetic, comparisons, Range, Zip/Project, Cross,
// Gather, Scatter, Partition, Materialize/Break and the controlled
// folds), and the differential test runs every program through the
// reference interpreter (§3.2, the semantic oracle) and the compiling
// backend in every option combination, requiring bit-identical results
// on every program root.
//
// The generator is constrained to the deterministic core of the algebra
// so that "bit-identical" is a sound requirement:
//
//   - FoldSum/FoldScan operate on integer values only: float summation
//     order differs between the compiled backend's parallel partials
//     and the interpreter's sequential runs. FoldMin/FoldMax are
//     order-independent and fold either kind.
//   - Divide/Modulo divisors are positive constants (no division by
//     zero), or positive values scattered into a longer vector, whose
//     unreached slots are ε with a 0 stored behind (genSparseDivide).
//   - Modulo/BitShift/And/Or see integer operands only (the algebra
//     rejects floats there).
//   - Scatter positions never repeat (a permutation of the output
//     positions, or genSparseDivide's stride apart), so write conflicts —
//     whose resolution order is backend-specific under parallel scatter —
//     cannot arise.
//   - Partition inputs are ε-free: Partition is only defined on dense
//     vectors (over an ε-padded fold output the interpreter reads every
//     padded slot while the compiler partitions the compact runs, so
//     there is no single right answer to agree on).
//   - Binary operators see same-kind operands (plus same-kind constant
//     broadcasts), keeping kind-promotion rules out of the comparison.
//
// Everything else is fair game, including ε (empty) slots in the loaded
// inputs, out-of-run positions from FoldSelect, and integer overflow
// (two's-complement wrapping is deterministic in both backends).
package difftest

import (
	"math/rand"

	"voodoo/internal/core"
	"voodoo/internal/interp"
	"voodoo/internal/vector"
)

// Program is one generated differential test case: a Voodoo program plus
// the storage its Loads resolve against. The same seed always yields the
// same program and data.
type Program struct {
	Seed int64
	Prog *core.Program
	St   interp.MemStorage
}

// entry is one single-attribute vector available to subsequent operators.
type entry struct {
	ref  core.Ref
	n    int
	kind vector.Kind
	// perm marks columns known to hold a permutation of [0,n) with every
	// slot valid — safe as Scatter positions and in-bounds Gather
	// positions.
	perm bool
	// full marks columns known to carry no ε slots (perm implies full).
	// Partition requires a full input; see the package comment.
	full bool
}

type gen struct {
	r    *rand.Rand
	b    *core.Builder
	st   interp.MemStorage
	pool []entry
}

// Generate builds the random program for seed. Generation is pure: no
// global state, so the differential test can replay any failing seed.
func Generate(seed int64) *Program {
	g := &gen{r: rand.New(rand.NewSource(seed)), b: core.NewBuilder(), st: interp.MemStorage{}}
	g.seedInputs()
	steps := 5 + g.r.Intn(11)
	for i := 0; i < steps; i++ {
		g.step()
	}
	return &Program{Seed: seed, Prog: g.b.Program(), St: g.st}
}

// seedInputs loads a few persistent columns: for each of one or two base
// lengths, an integer column, a float column and a shuffled permutation
// (scatter/gather fodder). A quarter of the non-permutation columns carry
// ε slots.
func (g *gen) seedInputs() {
	lengths := 1 + g.r.Intn(2)
	name := 0
	for l := 0; l < lengths; l++ {
		n := 1 + g.r.Intn(256)
		g.load(nameAt(&name), g.intCol(n), false)
		g.load(nameAt(&name), g.floatCol(n), false)
		g.load(nameAt(&name), g.permCol(n), true)
	}
}

func nameAt(i *int) string {
	s := "t" + string(rune('0'+*i))
	*i++
	return s
}

func (g *gen) intCol(n int) *vector.Column {
	if g.r.Intn(4) == 0 {
		c := vector.NewEmptyInt(n)
		for i := 0; i < n; i++ {
			if g.r.Intn(10) > 0 {
				c.SetInt(i, g.r.Int63n(201)-100)
			}
		}
		return c
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = g.r.Int63n(201) - 100
	}
	return vector.NewInt(vals)
}

func (g *gen) floatCol(n int) *vector.Column {
	if g.r.Intn(4) == 0 {
		c := vector.NewEmptyFloat(n)
		for i := 0; i < n; i++ {
			if g.r.Intn(10) > 0 {
				c.SetFloat(i, g.r.Float64()*200-100)
			}
		}
		return c
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = g.r.Float64()*200 - 100
	}
	return vector.NewFloat(vals)
}

func (g *gen) permCol(n int) *vector.Column {
	p := g.r.Perm(n)
	vals := make([]int64, n)
	for i, v := range p {
		vals[i] = int64(v)
	}
	return vector.NewInt(vals)
}

func (g *gen) load(name string, col *vector.Column, perm bool) {
	g.st[name] = vector.New(col.Len()).Set("val", col)
	ref := g.b.Load(name)
	g.pool = append(g.pool, entry{ref: ref, n: col.Len(), kind: col.Kind(),
		perm: perm, full: perm || col.AllValid()})
}

func (g *gen) push(e entry) {
	g.pool = append(g.pool, e)
}

func (g *gen) pick() entry { return g.pool[g.r.Intn(len(g.pool))] }

// pickWhere returns a random pool entry satisfying ok.
func (g *gen) pickWhere(ok func(entry) bool) (entry, bool) {
	for _, i := range g.r.Perm(len(g.pool)) {
		if ok(g.pool[i]) {
			return g.pool[i], true
		}
	}
	return entry{}, false
}

// constLike emits a same-kind constant for broadcasting against e.
func (g *gen) constLike(e entry) core.Ref {
	if e.kind == vector.Float {
		return g.b.ConstantF(g.r.Float64()*20 - 10)
	}
	return g.b.Constant(g.r.Int63n(21) - 10)
}

// step appends one randomly chosen operator (arithmetic is weighted up —
// it is the bulk of real programs too).
func (g *gen) step() {
	switch g.r.Intn(16) {
	case 0, 1, 2:
		g.genArith()
	case 3:
		if g.r.Intn(2) == 0 {
			g.genSparseDivide()
		} else {
			g.genDivide()
		}
	case 4:
		g.genIntOp()
	case 5, 6:
		g.genCompare()
	case 7:
		g.genRange()
	case 8:
		g.genGather()
	case 9:
		g.genScatter()
	case 10:
		g.genPartition()
	case 11, 12:
		g.genFold()
	case 13:
		g.genSelect()
	case 14:
		g.genZipProject()
	default:
		g.genMisc()
	}
}

func (g *gen) genArith() {
	a := g.pick()
	ops := []func(core.Ref, core.Ref) core.Ref{g.b.Add, g.b.Subtract, g.b.Multiply}
	op := ops[g.r.Intn(len(ops))]
	if b, ok := g.pickWhere(func(e entry) bool { return e.n == a.n && e.kind == a.kind }); ok && g.r.Intn(3) > 0 {
		g.push(entry{ref: op(a.ref, b.ref), n: a.n, kind: a.kind, full: a.full && b.full})
		return
	}
	g.push(entry{ref: op(a.ref, g.constLike(a)), n: a.n, kind: a.kind, full: a.full})
}

func (g *gen) genDivide() {
	a := g.pick()
	var c core.Ref
	if a.kind == vector.Float {
		c = g.b.ConstantF(0.25 + g.r.Float64()*8)
	} else {
		c = g.b.Constant(1 + g.r.Int63n(9))
	}
	g.push(entry{ref: g.b.Divide(a.ref, c), n: a.n, kind: a.kind, full: a.full})
}

// genSparseDivide scatters an integer column and a positive divisor by
// the same unique positions, stride apart, into a vector stride times as
// long, and divides (or takes the modulo of) one by the other. A slot no
// position reaches is ε in both, its divisor a 0 stored behind the ε: the
// quotient is ε there and must not fault, as a HAVING over a grouped
// aggregate's empty groups must not.
func (g *gen) genSparseDivide() {
	a, ok := g.pickWhere(func(e entry) bool { return e.kind == vector.Int })
	if !ok {
		g.genDivide()
		return
	}
	stride := 2 + g.r.Intn(3)
	size := g.b.RangeN(0, a.n*stride, 1)
	pos := g.b.Multiply(g.b.Range(a.ref), g.b.Constant(int64(stride)))
	den := g.b.Add(g.b.Range(a.ref), g.b.Constant(1+g.r.Int63n(4)))
	num, div := g.b.Scatter(a.ref, size, "", pos, ""), g.b.Scatter(den, size, "", pos, "")
	op := g.b.Divide
	if g.r.Intn(2) == 0 {
		op = g.b.Modulo
	}
	g.push(entry{ref: op(num, div), n: a.n * stride, kind: vector.Int})
}

func (g *gen) genIntOp() {
	a, ok := g.pickWhere(func(e entry) bool { return e.kind == vector.Int })
	if !ok {
		g.genArith()
		return
	}
	switch g.r.Intn(3) {
	case 0:
		g.push(entry{ref: g.b.Modulo(a.ref, g.b.Constant(1+g.r.Int63n(16))),
			n: a.n, kind: vector.Int, full: a.full})
	case 1:
		g.push(entry{ref: g.b.BitShift(a.ref, g.b.Constant(g.r.Int63n(10)-3)),
			n: a.n, kind: vector.Int, full: a.full})
	default:
		if b, ok := g.pickWhere(func(e entry) bool { return e.kind == vector.Int && e.n == a.n }); ok {
			op := g.b.And
			if g.r.Intn(2) == 0 {
				op = g.b.Or
			}
			g.push(entry{ref: op(a.ref, b.ref), n: a.n, kind: vector.Int, full: a.full && b.full})
			return
		}
		g.push(entry{ref: g.b.And(a.ref, g.b.Constant(g.r.Int63n(2))),
			n: a.n, kind: vector.Int, full: a.full})
	}
}

func (g *gen) genCompare() {
	a := g.pick()
	c := g.constLike(a)
	full := a.full
	if b, ok := g.pickWhere(func(e entry) bool { return e.n == a.n && e.kind == a.kind }); ok && g.r.Intn(2) == 0 {
		c = b.ref
		full = a.full && b.full
	}
	var out core.Ref
	switch g.r.Intn(4) {
	case 0:
		out = g.b.Greater(a.ref, c)
	case 1:
		out = g.b.Equals(a.ref, c)
	case 2:
		out = g.b.Less(a.ref, "", c, "")
	default:
		out = g.b.GreaterEqual(a.ref, "", c, "")
	}
	g.push(entry{ref: out, n: a.n, kind: vector.Int, full: full})
}

func (g *gen) genRange() {
	if g.r.Intn(2) == 0 {
		a := g.pick()
		g.push(entry{ref: g.b.Range(a.ref), n: a.n, kind: vector.Int, perm: true, full: true})
		return
	}
	n := 1 + g.r.Intn(64)
	g.push(entry{ref: g.b.RangeN(g.r.Int63n(9)-4, n, 1+g.r.Int63n(3)),
		n: n, kind: vector.Int, full: true})
}

func (g *gen) genGather() {
	src := g.pick()
	pos, ok := g.pickWhere(func(e entry) bool { return e.perm && e.n <= src.n })
	if !ok {
		pos = entry{ref: g.b.Range(src.ref), n: src.n, kind: vector.Int, perm: true, full: true}
	}
	g.push(entry{ref: g.b.Gather(src.ref, pos.ref, ""), n: pos.n, kind: src.kind,
		perm: src.perm && pos.n == src.n, full: src.full})
}

func (g *gen) genScatter() {
	pos, ok := g.pickWhere(func(e entry) bool { return e.perm })
	if !ok {
		base := g.pick()
		pos = entry{ref: g.b.Range(base.ref), n: base.n, kind: vector.Int, perm: true, full: true}
		g.push(pos)
	}
	src, ok := g.pickWhere(func(e entry) bool { return e.n == pos.n })
	if !ok {
		src = pos
	}
	g.push(entry{ref: g.b.Scatter(src.ref, pos.ref, "", pos.ref, ""),
		n: pos.n, kind: src.kind, perm: src.perm, full: src.full})
}

// genPartition partitions a dense integer column by a sorted pivot list
// (RangeN output is sorted by construction) and usually scatters a
// same-length column through the resulting stable position permutation.
func (g *gen) genPartition() {
	vals, ok := g.pickWhere(func(e entry) bool { return e.kind == vector.Int && e.full })
	if !ok {
		g.genArith()
		return
	}
	pivots := g.b.RangeN(g.r.Int63n(51)-25, 1+g.r.Intn(4), 1+g.r.Int63n(20))
	pos := g.b.Partition("val", vals.ref, "", pivots, "")
	g.push(entry{ref: pos, n: vals.n, kind: vector.Int, perm: true, full: true})
	if src, ok := g.pickWhere(func(e entry) bool { return e.n == vals.n }); ok && g.r.Intn(2) == 0 {
		g.push(entry{ref: g.b.Scatter(src.ref, pos, "", pos, ""),
			n: vals.n, kind: src.kind, perm: src.perm, full: src.full})
	}
}

// genFold emits a controlled fold: the control attribute is a
// non-decreasing run id built as floor(position / runLen), zipped next to
// the value attribute. An empty control keypath (one global run) is also
// exercised.
func (g *gen) genFold() {
	intOnly := g.r.Intn(3) < 2 // FoldSum/FoldScan/FoldCount need ints
	v := g.pick()
	if intOnly && v.kind != vector.Int {
		var ok bool
		if v, ok = g.pickWhere(func(e entry) bool { return e.kind == vector.Int }); !ok {
			intOnly = false
			v = g.pick()
		}
	}
	kind := v.kind
	if intOnly {
		kind = vector.Int
	}
	if g.r.Intn(4) == 0 { // global run
		var out core.Ref
		if intOnly {
			out = g.b.FoldSum(v.ref, "", "")
		} else if g.r.Intn(2) == 0 {
			out = g.b.FoldMin(v.ref, "", "")
		} else {
			out = g.b.FoldMax(v.ref, "", "")
		}
		g.push(entry{ref: out, n: v.n, kind: kind})
		return
	}
	runLen := 1 + g.r.Int63n(int64(v.n))
	ctl := g.b.Divide(g.b.Range(v.ref), g.b.Constant(runLen))
	z := g.b.Zip("k", ctl, "", "x", v.ref, "")
	var out core.Ref
	if intOnly {
		switch g.r.Intn(3) {
		case 0:
			out = g.b.FoldSum(z, "k", "x")
		case 1:
			out = g.b.FoldScan(z, "k", "x")
		default:
			out = g.b.FoldCount(z, "k")
		}
	} else if g.r.Intn(2) == 0 {
		out = g.b.FoldMin(z, "k", "x")
	} else {
		out = g.b.FoldMax(z, "k", "x")
	}
	g.push(entry{ref: out, n: v.n, kind: kind})
}

// genSelect is the paper's selection idiom: a predicate, a FoldSelect
// producing ε-padded positions, and a Gather resolving them — the shape
// both predication and empty-slot suppression rewrite in the compiler.
func (g *gen) genSelect() {
	v := g.pick()
	sel := g.b.Greater(v.ref, g.constLike(v))
	z := g.b.Zip("s", sel, "", "d", v.ref, "")
	pos := g.b.FoldSelect(z, "", "s")
	target, ok := g.pickWhere(func(e entry) bool { return e.n == v.n })
	if !ok {
		target = v
	}
	g.push(entry{ref: g.b.Gather(target.ref, pos, ""), n: v.n, kind: target.kind})
}

func (g *gen) genZipProject() {
	a := g.pick()
	b, ok := g.pickWhere(func(e entry) bool { return e.n == a.n })
	if !ok {
		b = a
	}
	z := g.b.Zip("a", a.ref, "", "b", b.ref, "")
	if g.r.Intn(3) == 0 {
		return // leave the multi-attribute vector as a program root
	}
	if g.r.Intn(2) == 0 {
		g.push(entry{ref: g.b.Project(core.DefaultOut, z, "a"),
			n: a.n, kind: a.kind, perm: a.perm, full: a.full})
	} else {
		g.push(entry{ref: g.b.Project(core.DefaultOut, z, "b"),
			n: b.n, kind: b.kind, perm: b.perm, full: b.full})
	}
}

// genMisc covers the structural rest: Materialize/Break (semantic
// identities, pipeline breakers for the compiler) and small Cross
// products.
func (g *gen) genMisc() {
	a := g.pick()
	switch g.r.Intn(3) {
	case 0:
		g.push(entry{ref: g.b.Materialize(a.ref, a.ref, ""),
			n: a.n, kind: a.kind, perm: a.perm, full: a.full})
	case 1:
		g.push(entry{ref: g.b.Break(a.ref, a.ref, ""),
			n: a.n, kind: a.kind, perm: a.perm, full: a.full})
	default:
		b, ok := g.pickWhere(func(e entry) bool { return e.n*a.n <= 2048 })
		if !ok {
			g.push(entry{ref: g.b.Materialize(a.ref, a.ref, ""),
				n: a.n, kind: a.kind, perm: a.perm, full: a.full})
			return
		}
		c := g.b.Cross("i", a.ref, "j", b.ref)
		g.push(entry{ref: g.b.Project(core.DefaultOut, c, "i"),
			n: a.n * b.n, kind: vector.Int, full: true})
	}
}
