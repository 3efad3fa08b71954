package compile

import (
	"fmt"
	"strings"

	"voodoo/internal/core"
	"voodoo/internal/interp"
	"voodoo/internal/kernel"
	"voodoo/internal/vector"
	"voodoo/internal/verify"
)

// Storage provides persistent vectors; it is the same contract the
// interpreter uses, so both backends run against identical catalogs.
type Storage = interp.Storage

// Options tune the compiling backend. The zero value is the default
// configuration used by the macro benchmarks.
type Options struct {
	// Predication replaces the data-dependent branch of selection folds
	// with cursor arithmetic (paper Figure 1 and §5.3): every element is
	// written and the write cursor advances by the predicate value.
	Predication bool
	// ForceBulk disables operator fusion entirely: every statement
	// becomes a materializing bulk step. This reproduces the
	// bulk-processing execution model of MonetDB/Ocelot and backs the
	// Ocelot baseline in the evaluation.
	ForceBulk bool
	// ScatterParallel gives materialized scatters a data-parallel shape
	// (up to defaultExtent work items instead of one). With repeated
	// positions the batch tier's tile order then decides which write lands
	// last, so it suits scatters whose positions are unique (building a
	// unique-key join table) or whose repeats store the same value (a semi
	// join's flag); the relational frontend enables it. The executor never
	// spreads a scatter fragment over participants (exec's cut rule), so a
	// repeat is never a race.
	ScatterParallel bool
	// Workers caps the goroutines used at execution time (0 = GOMAXPROCS).
	Workers int
}

const (
	// defaultExtent bounds the parallelism of fragments whose extent is
	// not dictated by a control vector (materializations, scatters).
	defaultExtent = 4096
	// groupExtent is the number of parallel work items (each with a
	// private accumulator array) used for grouped aggregations.
	groupExtent = 64
)

// Compile lowers p into an executable Plan. Storage is consulted at compile
// time: as in the paper, data sizes are compile-time constants.
func Compile(p *core.Program, st Storage, opt Options) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// A grouped fold counts its partitions only for a plan that expands one
	// of its results, which only a later statement shows: such a plan
	// compiles again, the fold counted.
	counted := map[int]bool{}
	for {
		c := &compiler{
			prog: p, st: st, opt: opt,
			kern:      &kernel.Kernel{},
			descs:     make([]*desc, len(p.Stmts)),
			plan:      &Plan{prog: p, st: st, opt: opt},
			foldCache: map[core.Ref]*desc{},
			sameMask:  map[int]int{},
			counted:   counted,
		}
		c.plan.kern = c.kern
		if verify.Enabled() {
			c.model, c.modelDiags = verify.Derive(p, st)
			if verify.HasErrors(c.modelDiags) {
				verify.FailuresTotal.Inc()
				return nil, fmt.Errorf("compile: program failed verification: %s", firstError(c.modelDiags))
			}
		}
		if err := c.run(); err != nil {
			return nil, err
		}
		if c.recount {
			continue
		}
		if verify.Enabled() {
			if diags := c.plan.Verify(); verify.HasErrors(diags) {
				verify.FailuresTotal.Inc()
				return nil, fmt.Errorf("compile: plan failed verification: %s", firstError(diags))
			}
		}
		return c.plan, nil
	}
}

// firstError returns the first Error-level diagnostic.
func firstError(diags []verify.Diagnostic) verify.Diagnostic {
	for _, d := range diags {
		if d.Level == verify.Error {
			return d
		}
	}
	return verify.Diagnostic{}
}

type compiler struct {
	prog  *core.Program
	st    Storage
	opt   Options
	kern  *kernel.Kernel
	descs []*desc
	uses  []int
	plan  *Plan
	nbuf  int
	// cur is the SSA id of the statement being compiled, attributed to
	// fragments and bulk steps as provenance for EXPLAIN and tracing.
	cur int
	// foldCache holds the results of fused multi-aggregate folds, keyed
	// by fold statement id.
	foldCache map[core.Ref]*desc
	// sameMask maps a buffer to another whose validity mask always equals
	// its own — columns a filter wrote through one selection — so an
	// attribute may test the other's (spillFilt).
	sameMask map[int]int
	// counted names the virtual Scatters whose grouped folds count their
	// partitions (groupedFold); recount, that a converter found one that
	// does not, and the plan compiles again.
	counted map[int]bool
	recount bool
	// model is the verifier's static model of every statement, from which
	// bulk steps declare their output buffers; derived by Compile when
	// verification is on, else on the first bulk step (nil until then).
	model      []verify.Value
	modelDiags []verify.Diagnostic
}

type compileErr struct{ err error }

func cerrf(format string, args ...any) {
	panic(compileErr{fmt.Errorf("compile: "+format, args...)})
}

func (c *compiler) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(compileErr); ok {
				err = e.err
				return
			}
			panic(r)
		}
	}()
	c.uses = c.prog.Uses()
	for i := range c.prog.Stmts {
		s := &c.prog.Stmts[i]
		c.cur = i
		c.descs[i] = c.compileStmt(s)
	}
	// Materialize roots so a run can hand back vectors. Their converters
	// may emit fragments of their own, so the output steps follow them all.
	var outs []step
	for i := range c.prog.Stmts {
		s := &c.prog.Stmts[i]
		c.cur = i
		if c.uses[i] == 0 && s.Op != core.OpPersist {
			outs = append(outs, &outputStep{ref: core.Ref(i), conv: c.converter(c.descs[i])})
		}
	}
	c.plan.steps = append(c.plan.steps, outs...)
	return nil
}

func (c *compiler) desc(r core.Ref) *desc { return c.descs[r] }

func (c *compiler) compileStmt(s *core.Stmt) *desc {
	if c.opt.ForceBulk && s.Op != core.OpLoad && s.Op != core.OpPersist {
		return c.bulk(s)
	}
	switch s.Op {
	case core.OpLoad:
		return c.compileLoad(s)
	case core.OpPersist:
		d := c.desc(s.Args[0])
		c.plan.steps = append(c.plan.steps, &persistStep{name: s.Name, conv: c.converter(d)})
		return d
	case core.OpConstant:
		var e expr
		if s.IsFloat {
			e = constF(s.FloatVal)
		} else {
			e = constI(s.IntVal)
		}
		return &desc{n: 1, attrs: []attr{{name: s.Out[0], ex: e}}}
	case core.OpRange:
		n := s.Size
		if len(s.Args) == 1 {
			n = c.desc(s.Args[0]).logical()
		}
		m := vector.Step(s.IntVal, s.Step)
		return &desc{n: n, attrs: []attr{{name: s.Out[0], ex: &eGen{m: m}}}}
	case core.OpZip:
		return c.compileZip(s)
	case core.OpProject:
		return c.compileProject(s)
	case core.OpUpsert:
		return c.compileUpsert(s)
	case core.OpGather:
		return c.compileGather(s)
	case core.OpScatter:
		return c.compileScatter(s)
	case core.OpMaterialize, core.OpBreak:
		d := c.plainify(c.desc(s.Args[0]))
		ctrl := c.ctrlOf(c.desc(s.Args[1]), s.Kp[1], d.logical())
		return c.bufferizeWithCtrl(d, ctrl)
	case core.OpPartition:
		return c.compilePartition(s)
	case core.OpFoldSelect, core.OpFoldSum, core.OpFoldMin, core.OpFoldMax, core.OpFoldScan:
		return c.compileFold(s)
	case core.OpCross:
		return c.bulk(s)
	default:
		if s.Op.IsArith() {
			return c.compileArith(s)
		}
		return c.bulk(s)
	}
}

func (c *compiler) compileLoad(s *core.Stmt) *desc {
	v, err := c.st.LoadVector(s.Name)
	if err != nil {
		cerrf("%v", err)
	}
	d := &desc{n: v.Len()}
	kps, all := c.readsOf(s)
	for _, name := range v.Names() {
		if !all && !readBy(name, kps) {
			continue
		}
		col := v.Col(name)
		buf := c.kern.AddBuf(kernel.BufDecl{
			Name: s.Name + "." + name, Kind: col.Kind(), Size: col.Len(),
			Valid: !col.AllValid(), Input: true,
		})
		c.plan.steps = append(c.plan.steps, &bindStep{buf: buf, col: col})
		a := attr{name: name, ex: &eLoad{buf: buf, k: col.Kind(), idx: theIdx}}
		if !col.AllValid() {
			a.validEx = &eLoadValid{buf: buf, idx: theIdx}
		}
		// Generated (control) columns keep their metadata symbolic.
		if m, ok := col.Generated(); ok {
			a.ex = &eGen{m: m}
			a.validEx = nil
		}
		d.attrs = append(d.attrs, a)
	}
	return d
}

// readsOf returns the keypaths the statements that consume s read of it —
// a fold's value attribute included — or all when one of them takes the
// whole vector: by an empty keypath, as a bulk step (with fusion off every
// statement converts its whole operands), or as an output (s is a root).
func (c *compiler) readsOf(s *core.Stmt) (kps []string, all bool) {
	if c.uses[s.ID] == 0 || c.opt.ForceBulk {
		return nil, true
	}
	for i := int(s.ID) + 1; i < len(c.prog.Stmts); i++ {
		t := &c.prog.Stmts[i]
		for j, a := range t.Args {
			if a != s.ID {
				continue
			}
			if j >= len(t.Kp) || t.Kp[j] == "" {
				return nil, true
			}
			kps = append(kps, t.Kp[j])
			if j == 0 && t.FoldVal != "" {
				kps = append(kps, t.FoldVal)
			}
		}
	}
	return kps, false
}

// readBy reports whether a keypath of kps designates the attribute name:
// names it, or names a prefix of its path.
func readBy(name string, kps []string) bool {
	for _, kp := range kps {
		if name == kp || strings.HasPrefix(name, kp+".") {
			return true
		}
	}
	return false
}

// attrsAt resolves a keypath on a plainified operand, returning copies of
// the designated attributes renamed under out.
func (c *compiler) attrsAt(d *desc, kp, out string, op core.Op) []attr {
	names, idx, ok := d.resolve(kp)
	if !ok {
		cerrf("%s: no attribute %q", op, kp)
	}
	var res []attr
	for i, rel := range names {
		a := d.attrs[idx[i]]
		name := out
		if rel != "" {
			if out != "" {
				name = out + "." + rel
			} else {
				name = rel
			}
		}
		res = append(res, attr{name: name, ex: a.ex, validEx: a.validEx})
	}
	return res
}

// compatible merges two operands into a common index space, or falls back.
// Scalars (n == 1) are broadcast by using their expressions directly.
func (c *compiler) compileZip(s *core.Stmt) *desc {
	d1 := c.plainify(c.desc(s.Args[0]))
	d2 := c.plainify(c.desc(s.Args[1]))
	if d1.layout != layoutDense || d2.layout != layoutDense {
		return c.bulk(s)
	}
	n := min(d1.n, d2.n)
	out := &desc{n: n}
	out.attrs = append(out.attrs, c.attrsAt(d1, s.Kp[0], s.Out[0], s.Op)...)
	out.attrs = append(out.attrs, c.attrsAt(d2, s.Kp[1], s.Out[1], s.Op)...)
	return out
}

func (c *compiler) compileProject(s *core.Stmt) *desc {
	d := c.plainify(c.desc(s.Args[0]))
	out := &desc{n: d.n, layout: d.layout, logicalN: d.logicalN,
		runLen: d.runLen, grp: d.grp}
	out.attrs = c.attrsAt(d, s.Kp[0], s.Out[0], s.Op)
	return out
}

func (c *compiler) compileUpsert(s *core.Stmt) *desc {
	d1 := c.plainify(c.desc(s.Args[0]))
	d2 := c.plainify(c.desc(s.Args[1]))
	a, ok := d2.single(s.Kp[1])
	if !ok {
		cerrf("Upsert: keypath %q does not name a single attribute", s.Kp[1])
	}
	if !isScalar(d2) && (d1.layout != d2.layout || d1.n != d2.n ||
		(d1.layout == layoutGroupCompact && !sameGroups(d1, d2))) {
		return c.bulk(s)
	}
	out := &desc{n: d1.n, layout: d1.layout, logicalN: d1.logicalN,
		runLen: d1.runLen, grp: d1.grp}
	replaced := false
	for _, old := range d1.attrs {
		if old.name == s.Out[0] {
			out.attrs = append(out.attrs, attr{name: s.Out[0], ex: a.ex, validEx: a.validEx})
			replaced = true
			continue
		}
		out.attrs = append(out.attrs, old)
	}
	if !replaced {
		out.attrs = append(out.attrs, attr{name: s.Out[0], ex: a.ex, validEx: a.validEx})
	}
	return out
}

func (c *compiler) compileArith(s *core.Stmt) *desc {
	d1 := c.plainify(c.desc(s.Args[0]))
	d2 := c.plainify(c.desc(s.Args[1]))
	a1, ok1 := d1.single(s.Kp[0])
	a2, ok2 := d2.single(s.Kp[1])
	if !ok1 || !ok2 {
		cerrf("%s: operands must resolve to single attributes", s.Op)
	}
	// Determine the common index space. A one-slot vector broadcasts only
	// when it is truly scalar (dense): a one-slot *compact* fold result
	// still denotes a padded vector and must not broadcast.
	var n int
	out := &desc{}
	s1 := isScalar(d1)
	s2 := isScalar(d2)
	switch {
	case s1 && s2:
		n = 1
	case s1:
		n, out.layout, out.logicalN, out.runLen, out.grp = d2.n, d2.layout, d2.logicalN, d2.runLen, d2.grp
	case s2:
		n, out.layout, out.logicalN, out.runLen, out.grp = d1.n, d1.layout, d1.logicalN, d1.runLen, d1.grp
	case d1.layout == layoutDense && d2.layout == layoutDense:
		n = min(d1.n, d2.n)
	case d1.layout == layoutFoldCompact && d2.layout == layoutFoldCompact &&
		d1.runLen == d2.runLen && d1.logicalN == d2.logicalN:
		// Two compatible suppressed fold results (e.g. sum/count for an
		// average) combine slot-wise in the compact space.
		n, out.layout, out.logicalN, out.runLen = min(d1.n, d2.n),
			layoutFoldCompact, d1.logicalN, d1.runLen
	case sameGroups(d1, d2):
		// So do two results of one grouped fold.
		n, out.layout, out.logicalN, out.grp = d1.n, layoutGroupCompact, d1.logicalN, d1.grp
	default:
		return c.bulk(s)
	}
	out.n = n
	bop, ok := arithBinOp(s.Op)
	if !ok {
		cerrf("%s: no kernel lowering", s.Op)
	}
	ex := binExpr(bop, a1.ex, a2.ex)
	a := attr{name: s.Out[0], ex: ex}
	a.validEx = andValid(a1.validEx, a2.validEx)
	out.attrs = []attr{a}
	return out
}

// sameGroups reports whether a and b are results of one grouped fold,
// whose compact slots are the same groups.
func sameGroups(a, b *desc) bool {
	return a.layout == layoutGroupCompact && b.layout == layoutGroupCompact &&
		a.grp == b.grp && a.n == b.n && a.logicalN == b.logicalN
}

func andValid(a, b expr) expr {
	switch {
	case a == nil || a == b:
		return b
	case b == nil:
		return a
	default:
		return &eBin{op: kernel.BAnd, a: a, b: b}
	}
}

func arithBinOp(op core.Op) (kernel.BinOp, bool) {
	switch op {
	case core.OpAdd:
		return kernel.BAdd, true
	case core.OpSubtract:
		return kernel.BSub, true
	case core.OpMultiply:
		return kernel.BMul, true
	case core.OpDivide:
		return kernel.BDiv, true
	case core.OpModulo:
		return kernel.BMod, true
	case core.OpBitShift:
		return kernel.BShl, true
	case core.OpLogicalAnd:
		return kernel.BAnd, true
	case core.OpLogicalOr:
		return kernel.BOr, true
	case core.OpGreater:
		return kernel.BGt, true
	case core.OpEquals:
		return kernel.BEq, true
	}
	return 0, false
}

func (c *compiler) compileGather(s *core.Stmt) *desc {
	src := c.desc(s.Args[0])
	posD := c.desc(s.Args[1])

	// Gather through an unmaterialized FoldSelect: keep the pipeline
	// symbolic so a following fold fuses into one fragment (Figure 8).
	if posD.sel != nil {
		return &desc{n: posD.sel.srcN, logicalN: posD.sel.srcN,
			filt: &filtInfo{sel: posD.sel, attrs: c.selectedAttrs(src, posD.sel.srcN), stmt: c.cur}}
	}

	// Gather through a *filtered* gather (an indexed FK lookup on selected
	// rows, Figure 16's branching variant): compose the position expression
	// over the selected-position leaf so the whole chain stays one loop.
	if posD.filt != nil {
		pos, ok := (&desc{n: posD.n, attrs: posD.filt.attrs}).single(s.Kp[1])
		if ok {
			srcB := c.bufferize(c.densify(c.plainify(src)))
			var attrs []attr
			for _, a := range srcB.attrs {
				ld := a.ex.(*eLoad)
				validity := &eLoadValid{buf: ld.buf, idx: pos.ex}
				var valid expr = validity
				if pos.validEx != nil {
					valid = &eBin{op: kernel.BAnd, a: pos.validEx, b: validity}
				}
				safe := &eSel{c: valid, a: pos.ex, b: constI(0)}
				attrs = append(attrs, attr{name: a.name,
					ex: &eLoad{buf: ld.buf, k: ld.k, idx: safe}, validEx: valid})
			}
			return &desc{n: posD.n, logicalN: posD.logical(),
				filt: &filtInfo{sel: posD.filt.sel, attrs: attrs, stmt: c.cur}}
		}
	}

	// A slot of a suppressed fold result at a constant position (a global
	// aggregate's one row) is read from its run's compact slot, unexpanded;
	// slot 0 of a one-run fold is its one slot, where a divisor that may be
	// zero reads 1 if the value is ε, as the interpreter divides no ε. Past
	// the padded end (a fold of no rows) every attribute is ε.
	if src := c.plainify(src); src.layout == layoutFoldCompact && isScalar(posD) && len(posD.attrs) == 1 {
		a := posD.attrs[0]
		if k, ok := a.ex.(*eConst); ok && a.validEx == nil && !k.isF && k.i >= 0 {
			memo := map[expr]expr{}
			out := &desc{n: 1}
			if k.i < int64(src.logicalN) && (src.n > 1 || k.i > 0) {
				src = c.densify(src)
			}
			for _, a := range src.attrs {
				ex, valid := a.ex, a.validEx
				switch {
				case k.i >= int64(src.logicalN):
					ex, valid = constI(0), constI(0)
					if a.kind() == vector.Float {
						ex = constF(0)
					}
				case valid != nil && mayFault(ex):
					ex = guardDivisors(ex, valid, map[expr]expr{})
				}
				out.attrs = append(out.attrs, attr{name: a.name,
					ex: subIdx(ex, theIdx, k, memo), validEx: subIdx(valid, theIdx, k, memo)})
			}
			return out
		}
	}

	posD = c.densify(c.plainify(posD))
	pos, ok := posD.single(s.Kp[1])
	if !ok {
		cerrf("Gather: position keypath %q does not name a single attribute", s.Kp[1])
	}
	srcB := c.bufferize(c.densify(c.plainify(src)))
	out := &desc{n: posD.n}
	for _, a := range srcB.attrs {
		ld := a.ex.(*eLoad)
		// Generated positions with statically provable bounds load
		// unchecked — the compile-time knowledge the paper exploits.
		if m, ok := genMetaOf(pos.ex); ok && pos.validEx == nil && a.validEx == nil {
			if lo, hi := metaBounds(m, posD.n); lo >= 0 && hi < int64(c.kern.Bufs[ld.buf].Size) {
				out.attrs = append(out.attrs, attr{name: a.name,
					ex: &eLoad{buf: ld.buf, k: ld.k, idx: pos.ex}})
				continue
			}
		}
		// Out-of-bounds (and ε) positions produce ε slots: guard the
		// load with a validity probe and clamp the index.
		validity := &eLoadValid{buf: ld.buf, idx: pos.ex}
		var valid expr = validity
		if pos.validEx != nil {
			valid = &eBin{op: kernel.BAnd, a: pos.validEx, b: validity}
		}
		safe := &eSel{c: valid, a: pos.ex, b: constI(0)}
		load := &eLoad{buf: ld.buf, k: ld.k, idx: safe}
		out.attrs = append(out.attrs, attr{name: a.name, ex: load, validEx: valid})
	}
	return out
}

// selectedAttrs returns src's attributes as expressions over the selected
// position (thePos) of a selection over n elements. An attribute composes —
// its expression is re-indexed onto thePos and evaluated only at the rows
// the consumer reaches — when src is dense over the selection's own index
// space and the attribute cannot fault; the rest are materialized over all n
// rows first and loaded at thePos, so a projection that faults on a row the
// selection rejects still faults, as in the interpreter, which evaluates it
// before selecting. Past the end of a source shorter than the selection the
// attributes are ε, as a Gather's out-of-bounds positions are.
func (c *compiler) selectedAttrs(src *desc, n int) []attr {
	d := c.densify(c.plainify(src))
	attrs := make([]attr, len(d.attrs))
	memo := map[expr]expr{}
	var rest []int
	for i, a := range d.attrs {
		if d.n != n || !composable(a.ex) || (a.validEx != nil && !composable(a.validEx)) {
			rest = append(rest, i)
			continue
		}
		attrs[i] = attr{name: a.name, ex: subIdx(a.ex, theIdx, thePos, memo)}
		if a.validEx != nil {
			attrs[i].validEx = subIdx(a.validEx, theIdx, thePos, memo)
		}
	}
	if len(rest) == 0 {
		return attrs
	}
	mat := &desc{n: d.n}
	for _, i := range rest {
		mat.attrs = append(mat.attrs, d.attrs[i])
	}
	for j, a := range c.bufferize(mat).attrs {
		ld := a.ex.(*eLoad)
		na := attr{name: a.name, ex: &eLoad{buf: ld.buf, k: ld.k, idx: thePos}}
		if a.validEx != nil || d.n < n {
			na.validEx = &eLoadValid{buf: ld.buf, idx: thePos}
		}
		if d.n < n {
			na.ex = &eLoad{buf: ld.buf, k: ld.k, idx: &eSel{c: na.validEx, a: thePos, b: constI(0)}}
		}
		attrs[rest[j]] = na
	}
	return attrs
}

// composable reports whether e may be re-indexed onto a selected position:
// the emitter can lower it and evaluating it cannot fail.
func composable(e expr) bool { return emittable(e) && !mayFault(e) }

func (c *compiler) compilePartition(s *core.Stmt) *desc {
	d1 := c.plainify(c.desc(s.Args[0]))
	d2 := c.plainify(c.desc(s.Args[1]))
	val, ok := d1.single(s.Kp[0])
	if !ok {
		cerrf("Partition: keypath %q does not name a single attribute", s.Kp[0])
	}
	piv, okP := d2.single(s.Kp[1])
	if !okP {
		cerrf("Partition: pivot keypath %q does not name a single attribute", s.Kp[1])
	}
	pi := &partInfo{valEx: val.ex, srcN: d1.n, k: d2.logical() + 1, stmt: c.cur,
		pivots: &desc{n: d2.n, attrs: []attr{{name: "p", ex: piv.ex, validEx: piv.validEx}}}}
	if m, ok := genMetaOf(val.ex); ok {
		pi.meta = &m
	}
	// The position attribute is a provenance marker: a following Scatter
	// dissolves it (virtual scatter); any other consumer forces a bulk
	// counting sort via ensureEmittable.
	return &desc{n: d1.n, part: pi,
		attrs: []attr{{name: s.Out[0], ex: &ePartRef{info: pi}}}}
}

func (c *compiler) compileScatter(s *core.Stmt) *desc {
	src := c.desc(s.Args[0])
	sizeD := c.desc(s.Args[1])
	posD := c.desc(s.Args[2])

	// Virtual scatter (paper §3.1.3): positions generated by a Partition.
	pi := c.partitionBehind(posD, s.Kp[2])
	if pi != nil && src.plain() && src.layout == layoutDense {
		n := sizeD.logical()
		if pi.meta != nil {
			m := *pi.meta
			if m.Cap > 1 && m.IntegralStep(1) && n == src.n {
				// Modulo control: round-robin lanes; partition p
				// holds source elements i ≡ p (mod k). The scatter
				// dissolves into strided index arithmetic.
				k := int(m.Cap)
				return &desc{
					n: n, layout: layoutScattered, logicalN: n,
					lanes: k, runLen: (n + k - 1) / k,
					partAttr: c.scatPartAttr(src, pi),
					attrs:    src.attrs,
				}
			}
			if _, ok := m.RunLength(); ok && m.Cap == 0 && n == src.n {
				// Divide control: blocked partitions are already
				// contiguous — the scatter is the identity.
				return &desc{n: src.n, attrs: src.attrs}
			}
		}
		// Data-controlled partition: defer to the grouped-aggregation
		// lowering if a fold consumes this (Figure 11); otherwise the
		// plainify fallback materializes it.
		return &desc{n: sizeD.logical(), logicalN: sizeD.logical(),
			gpend: &groupPending{part: pi, src: src, n: sizeD.logical(), stmt: c.cur}}
	}
	return c.realScatter(s)
}

// scatPartAttr finds the attribute of src that carries the partition id, so
// a fold keyed on it can be recognized.
func (c *compiler) scatPartAttr(src *desc, pi *partInfo) string {
	for _, a := range src.attrs {
		if m, ok := genMetaOf(a.ex); ok && pi.meta != nil && m == *pi.meta {
			return a.name
		}
	}
	return ""
}

// partitionBehind extracts Partition provenance from a position operand.
func (c *compiler) partitionBehind(posD *desc, kp string) *partInfo {
	if posD.part != nil {
		return posD.part
	}
	if a, ok := posD.single(kp); ok {
		if p, ok := a.ex.(*ePartRef); ok {
			return p.info
		}
	}
	return nil
}

// ePartRef lets Partition results travel through Upsert/Zip as ordinary
// attributes while retaining provenance. It cannot be emitted; consuming it
// in a plain expression forces bulk materialization.
type ePartRef struct{ info *partInfo }

func (ePartRef) kind() vector.Kind { return vector.Int }

// groupPending is a virtual scatter over a data-controlled partition,
// waiting for a fold to lower it as a grouped aggregation.
type groupPending struct {
	part *partInfo
	src  *desc
	n    int // output (scattered) size
	stmt int // SSA id of the Scatter, for fragment provenance
}

// ctrlOf derives the fold-loop structure from a control attribute.
func (c *compiler) ctrlOf(d *desc, kp string, n int) foldCtrl {
	if kp == "" {
		return foldCtrl{global: true, runLen: n}
	}
	a, ok := d.single(kp)
	if !ok {
		return foldCtrl{global: true, runLen: n}
	}
	if m, ok := genMetaOf(a.ex); ok {
		if m.IsConstant() {
			return foldCtrl{global: true, runLen: n}
		}
		if rl, ok := m.RunLength(); ok && m.Cap == 0 {
			return foldCtrl{runLen: rl}
		}
		if m.Cap > 1 && m.IntegralStep(1) {
			// Modulo control directly on an id vector: adjacent values
			// all differ, so every run has length 1.
			return foldCtrl{runLen: 1}
		}
	}
	return foldCtrl{unknown: true}
}
