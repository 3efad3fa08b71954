package rel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"voodoo/internal/core"
	"voodoo/internal/storage"
	"voodoo/internal/vector"
)

// origin tracks which base-table column an attribute came from, so joins
// and group-bys can size their open tables from min/max metadata — the
// paper's "identity hashing on open hashtables ... derive their size from
// the input domain (using only min and max)".
type origin struct {
	table *storage.Table
	col   string
	// dom is a group key's domain as its aggregate hashed it, which wins
	// over the table's metadata (and stands in for it for a computed key).
	dom *Domain
}

// lowered is the state of a lowered plan node.
type lowered struct {
	ref     core.Ref
	cols    []string
	origins map[string]origin
	n       int // algebra length (padded; constant through the pipeline)
	// live names a hidden match column whose ε slots mark rows dropped by
	// a filtered or semi join. Instead of running a physical match-filter
	// pass after such joins, dropped rows ride along as ε and aggregate
	// inputs are anchored on this column (ε contributes nothing) — one
	// full select+gather pass saved per join.
	live string
}

// clone hands a lowered subtree to one more consumer: consumers extend
// cols in place (lowerJoin, lowerMap), so a shared subtree gives each its
// own. A join, the one consumer that adds origins, copies them first.
func (lo *lowered) clone() *lowered {
	c := *lo
	c.cols = slices.Clip(lo.cols)
	return &c
}

// node is the analysis of one distinct subtree of a plan, made once by
// analyse before anything lowers and read by lowering, which recomputes
// none of it: in, its inputs' (a join's probe side first); own, the
// columns n's expressions read (a join: its probe key); reads, a
// Filter's, the columns read above it over every copy.
type node struct {
	n          Node
	id         int // its encoding where it is an input
	in         []*node
	own, reads []string
	chain
	plan *aggPlan
	lo   *lowered
}

// chain is what a node's output keeps of the scan at the root of its probe
// chain (base): a column that anchors a count(*), whether rows of the scan
// were dropped (filtered), and the columns it computes or carries in place
// of the scan's (over). A GroupAgg starts a chain of its own, with no base.
type chain struct {
	anchor   string
	filtered bool
	base     *node
	over     []string
}

// lowerer lowers one query; it is single-use.
type lowerer struct {
	b   *core.Builder
	cat *storage.Catalog
	// root is the lowered root relation, keys first; keys is its number
	// of group keys, and keep whether it holds keepCol.
	root  *lowered
	keys  int
	keep  bool
	nLive int // match-column counter
	// shared holds the analysis of every distinct subtree, keyed by its
	// encoding, inputs by their ids: equal subtrees lower once. aggs
	// holds an aggregate expression's group's; in and cols, the inputs and
	// the columns read so far of the node being analysed.
	shared map[string]*node
	aggs   map[*GroupAgg]*node
	in     []*node
	cols   []string
	enc    []byte // exprEqual's encodings
}

// grain is the number of parallel runs selections expose.
const grain = 1024

func (l *lowerer) errf(format string, args ...any) {
	panic(lowerErr{fmt.Errorf("rel: "+format, args...)})
}

type lowerErr struct{ err error }

// BuildKeyError is the plan error for a join whose build side has more rows
// than its key has values: the key cannot be unique there, and an index
// join keeps one build row per key.
type BuildKeyError struct {
	Key      string
	Rows     int
	Min, Max int64
}

func (e *BuildKeyError) Error() string {
	return fmt.Sprintf("rel: join build key %q is not unique: %d rows over the %d values %d..%d; "+
		"build on the side whose key is unique (in SQL, put that table in the JOIN clause and the other in FROM)",
		e.Key, e.Rows, e.Max-e.Min+1, e.Min, e.Max)
}

// analyse returns the one analysis of every subtree equal to n, made when
// the first is met: n encoded once, its inputs by their analyses' ids
// (nested), and what n reads handed to its inputs: a join's build side its
// key and carried columns, a GroupAgg's input its keys and folds' inputs.
func (l *lowerer) analyse(b []byte, n Node) *node {
	outer, cols := l.in, l.cols
	l.in, l.cols = nil, nil
	enc, ok := appendNode(b, n, l)
	in, own := l.in, l.cols
	l.in, l.cols = outer, cols
	if !ok {
		l.errf("%T holds a type lowering does not know", n)
	}
	if r := l.shared[string(enc[len(b):])]; r != nil {
		return r
	}
	r := &node{n: n, id: len(l.shared), in: in, own: own}
	l.shared[string(enc[len(b):])] = r
	switch x := n.(type) {
	case Scan:
		r.base = r
		if len(x.Cols) > 0 {
			r.anchor = x.Cols[0]
		}
	case Filter:
		r.chain, r.filtered = in[0].chain, true
	case Map:
		r.chain, r.over = in[0].chain, slices.Clip(in[0].over)
		for _, o := range x.Outs {
			r.over = append(r.over, o.Name)
		}
	case IndexJoin:
		r.own, r.chain = []string{x.ProbeKey}, in[0].chain
		r.filtered = x.Semi || r.filtered || in[1].filtered
		in[1].read(append([]string{x.BuildKey}, x.Cols...))
		if !x.Semi {
			r.over = append(slices.Clip(r.over), x.Cols...)
		}
	case GroupAgg:
		r.filtered = true
		if len(x.Keys) > 0 {
			r.anchor = x.Keys[0]
		} else if len(x.Aggs) > 0 {
			r.anchor = x.Aggs[0].As
		}
		r.plan = l.planAgg(b, x, in[0])
	}
	return r
}

// analysed stands for an analysed input in a node planAgg makes.
type analysed struct{ *node }

func (analysed) isNode() {}

// nested encodes an input of the node being analysed, which it analyses,
// or an aggregate expression's group, as the id of its analysis; for a
// nil l, whole.
func (l *lowerer) nested(b []byte, n Node) ([]byte, bool) {
	g, agg := n.(*GroupAgg)
	if agg && l == nil {
		n = *g
	}
	switch {
	case l == nil:
		return appendNode(b, n, nil)
	case agg:
		if l.aggs[g] == nil {
			l.aggs[g] = l.analyse(b, *g)
		}
		return binary.AppendUvarint(b, uint64(l.aggs[g].id)), true
	}
	r, ok := n.(analysed)
	if !ok {
		r = analysed{l.analyse(b, n)}
	}
	l.in = append(l.in, r.node)
	return binary.AppendUvarint(b, uint64(r.id)), true
}

// read records that cols are read of r: a Filter keeps them, and a Filter,
// Map or join passes them on to its input (a join's probe side) with what
// it reads itself.
func (r *node) read(cols []string) {
	for {
		switch r.n.(type) {
		case Filter:
			r.reads = append(r.reads, cols...)
		case Map, IndexJoin:
		default:
			return
		}
		cols, r = append(slices.Clip(cols), r.own...), r.in[0]
	}
}

// lower produces the Voodoo statements for r's node, once per distinct
// subtree.
func (l *lowerer) lower(r *node) *lowered {
	if r.lo == nil {
		switch x := r.n.(type) {
		case Scan:
			r.lo = l.lowerScan(x)
		case Filter:
			r.lo = l.lowerFilter(x, r)
		case Map:
			r.lo = l.lowerMap(x, l.lower(r.in[0]))
		case IndexJoin:
			r.lo = l.lowerJoin(x, r)
		case GroupAgg:
			r.lo = l.lowerGroupAgg(x, r)
		}
	}
	return r.lo.clone()
}

// keepCol is the root relation's column holding a root Filter's
// predicate: the result keeps the rows it holds true at.
const keepCol = "__keep"

// lowerRoot lowers the plan's root, a GroupAgg or a Filter over one, or a
// Map over either, to the aggregate's relation, the Map's columns and the
// Filter's predicate more columns of it.
func (l *lowerer) lowerRoot(n Node) {
	r := l.analyse(make([]byte, 0, 256), n)
	m, mapped := n.(Map)
	if mapped {
		n, r = m.In, r.in[0]
	}
	f, filtered := n.(Filter)
	if filtered {
		n, r = f.In, r.in[0]
	}
	g, ok := n.(GroupAgg)
	if !ok {
		l.errf("the root must be a GroupAgg or a Filter over one, or a Map over either, not %T", n)
	}
	l.root, l.keys, l.keep = l.lower(r), len(g.Keys), filtered
	if filtered {
		l.root.ref = l.b.Upsert(l.root.ref, keepCol, l.expr(l.root, f.Pred), "")
	}
	if mapped {
		l.root = l.lowerMap(m, l.root)
	}
}

func (l *lowerer) lowerScan(s Scan) *lowered {
	t, err := l.cat.Lookup(s.Table)
	if err != nil {
		panic(lowerErr{fmt.Errorf("rel: %w", err)})
	}
	v := l.b.Load(s.Table)
	if len(s.Cols) == 0 {
		l.errf("scan of %s lists no columns", s.Table)
	}
	lo := &lowered{cols: s.Cols, origins: map[string]origin{}, n: t.N}
	for _, c := range s.Cols[1:] {
		if t.Col(c) == nil {
			l.errf("table %s has no column %q", s.Table, c)
		}
	}
	for _, c := range s.Cols {
		lo.origins[c] = origin{table: t, col: c}
	}
	// Prune to the requested columns so joins and filters never move
	// unused attributes.
	lo.ref = l.project(v, s.Cols)
	return lo
}

// project is the vector of v's attributes cols.
func (l *lowerer) project(v core.Ref, cols []string) core.Ref {
	out := l.b.Project(cols[0], v, cols[0])
	for _, c := range cols[1:] {
		out = l.b.Upsert(out, c, v, c)
	}
	return out
}

// arithOps are the operators one arithmetic statement computes.
var arithOps = map[BinOp]core.Op{Add: core.OpAdd, Sub: core.OpSubtract, Mul: core.OpMultiply,
	Div: core.OpDivide, Mod: core.OpModulo, Eq: core.OpEquals, Gt: core.OpGreater,
	And: core.OpLogicalAnd, Or: core.OpLogicalOr}

// expr lowers a scalar expression against the current relation, returning a
// single-attribute vector aligned with it.
func (l *lowerer) expr(cur *lowered, e Expr) core.Ref {
	b := l.b
	switch x := e.(type) {
	case Col:
		if !slices.Contains(cur.cols, x.Name) {
			l.errf("no column %q (have %v)", x.Name, cur.cols)
		}
		return b.Project("val", cur.ref, x.Name)
	case IntLit:
		return b.Constant(x.V)
	case FloatLit:
		return b.ConstantF(x.V)
	case Not:
		return b.Equals(l.expr(cur, x.E), b.Constant(0))
	case Agg:
		if len(x.G.Keys) != 0 || len(x.G.Aggs) != 1 {
			l.errf("Agg takes a keyless aggregate of one column (%d keys, %d aggregates)", len(x.G.Keys), len(x.G.Aggs))
		}
		// The aggregate's relation is one slot, which broadcasts.
		return b.Project("val", l.lower(l.aggs[x.G]).ref, x.G.Aggs[0].As)
	case InList:
		v := l.expr(cur, x.E)
		var acc core.Ref = -1
		for _, lit := range x.Vs {
			eq := b.Equals(v, b.Constant(lit))
			if acc < 0 {
				acc = eq
			} else {
				acc = b.Or(acc, eq)
			}
		}
		if acc < 0 {
			return b.Constant(0)
		}
		return acc
	case Between:
		v := l.expr(cur, x.E)
		lo := l.expr(cur, x.Lo)
		hi := l.expr(cur, x.Hi)
		ge := b.GreaterEqual(v, "", lo, "")
		le := b.GreaterEqual(hi, "", v, "")
		return b.And(ge, le)
	case Bin:
		lv := l.expr(cur, x.L)
		rv := lv // equal operands are one value: a count's e > e folds away
		if !l.exprEqual(x.L, x.R) {
			rv = l.expr(cur, x.R)
		}
		switch x.Op {
		case Ne:
			return b.Equals(b.Equals(lv, rv), b.Constant(0))
		case Ge:
			return b.GreaterEqual(lv, "", rv, "")
		case Lt:
			return b.Greater(rv, lv)
		case Le:
			return b.GreaterEqual(rv, "", lv, "")
		}
		if op, ok := arithOps[x.Op]; ok {
			return b.Arith(op, core.DefaultOut, lv, "", rv, "")
		}
	}
	l.errf("unknown expr %T", e)
	return -1
}

// lowerFilter applies f's predicate: controlled fold-select with a
// generated control vector exposing `grain` parallel runs, then a gather of
// the columns read above f (r.reads) and the liveness column (the compiler
// fuses these, paper Figure 8).
func (l *lowerer) lowerFilter(f Filter, r *node) *lowered {
	b := l.b
	cur := l.lower(r.in[0])
	pred := l.expr(cur, f.Pred)
	runLen := (cur.n + grain - 1) / grain
	if runLen < 1 {
		runLen = 1
	}
	ids := b.Range(pred)
	fold := b.Project("fold", b.Divide(ids, b.Constant(int64(runLen))), "")
	withFold := b.Zip("p", pred, "", "fold", fold, "fold")
	sel := b.FoldSelect(withFold, "fold", "p")
	src := cur.ref
	cols := slices.DeleteFunc(slices.Clone(cur.cols), func(c string) bool {
		return c != cur.live && !slices.Contains(r.reads, c)
	})
	if len(cols) == 0 {
		cols = cur.cols[:1]
	}
	if len(cols) < len(cur.cols) {
		src = l.project(cur.ref, cols)
	}
	out := b.Gather(src, sel, "")
	return &lowered{ref: out, cols: cols, origins: cur.origins, n: cur.n, live: cur.live}
}

// lowerMap appends m's columns to cur, m's input.
func (l *lowerer) lowerMap(m Map, cur *lowered) *lowered {
	out := &lowered{ref: cur.ref, cols: cur.cols, origins: cur.origins, n: cur.n,
		live: cur.live}
	for _, ne := range m.Outs {
		v := l.expr(out, ne.E)
		out.ref = l.b.Upsert(out.ref, ne.Name, v, "")
		if !slices.Contains(out.cols, ne.Name) {
			out.cols = append(out.cols, ne.Name)
		}
	}
	return out
}

// domain returns the [min, max] metadata of a base column.
func (l *lowerer) domain(cur *lowered, col string) (int64, int64) {
	o, ok := cur.origins[col]
	if !ok {
		l.errf("column %q has no base-table origin (needed for identity hashing)", col)
	}
	if o.dom != nil {
		return o.dom.Min, o.dom.Max
	}
	st, ok := o.table.Stats(o.col)
	if !ok {
		l.errf("no stats for %s.%s", o.table.Name, o.col)
	}
	return st.MinI, st.MaxI
}

func (l *lowerer) lowerJoin(j IndexJoin, r *node) *lowered {
	b := l.b
	build := l.lower(r.in[1])
	probe := l.lower(r.in[0])
	if !slices.Contains(build.cols, j.BuildKey) {
		l.errf("build side lacks key %q", j.BuildKey)
	}
	minK, maxK := l.domain(build, j.BuildKey)
	size := maxK - minK + 1
	if size <= 0 || size > 1<<28 {
		l.errf("join key domain of %q is unusable (%d..%d)", j.BuildKey, minK, maxK)
	}
	// The open table holds one row per key, so a build key must be unique.
	// More rows than key values is the one case the metadata decides
	// (pigeonhole): reject it rather than let the last writer per key win.
	// An existence test only stores a flag and is indifferent to repeats.
	// (An aggregate's length is its key domain: its keys pass.)
	if !j.Semi && int64(build.n) > size {
		panic(lowerErr{&BuildKeyError{Key: j.BuildKey, Rows: build.n, Min: minK, Max: maxK}})
	}

	// An aggregate on the key is an open table already: a group sits at
	// key − min, and its key is ε exactly where no group is, a match flag.
	// The match flag is read, as liveness, where a probe row may have no
	// match: over a semi join's or a filtered build, and where the join
	// carries no column and so exists only to filter.
	table, match := build.ref, j.BuildKey
	live := j.Semi || r.in[1].filtered || len(j.Cols) == 0
	if g, ok := j.Build.(GroupAgg); !ok || len(g.Keys) != 1 || g.Keys[0] != j.BuildKey {
		// Build: scatter carried columns, and a match flag where it is read,
		// into the open table at position key-min (identity hashing). Rows
		// the build side dropped (ε liveness from its own filtered joins)
		// must not enter the table: anchored on the liveness column, their
		// positions are ε and store nothing.
		keyVec := b.Project("val", build.ref, j.BuildKey)
		pos := b.Subtract(keyVec, b.Constant(minK))
		if build.live != "" {
			pos = b.Add(pos, b.Arith(core.OpMultiply, "z", build.ref, build.live, b.Constant(0), ""))
		}
		rows, cols := build.ref, j.Cols
		if live {
			rows = b.Upsert(rows, "__m", b.Add(b.Multiply(keyVec, b.Constant(0)), b.Constant(1)), "")
			cols = append(slices.Clip(cols), "__m")
		}
		src := l.project(rows, cols)
		withPos := b.Upsert(src, "__pos", pos, "")
		table, match = b.Scatter(src, b.RangeN(0, int(size), 1), "", withPos, "__pos"), "__m"
	}

	// Probe: gather through key-min.
	ppos := b.Subtract(b.Project("val", probe.ref, j.ProbeKey), b.Constant(minK))
	probeWithPos := b.Upsert(probe.ref, "__jp", ppos, "")
	joined := b.Gather(table, probeWithPos, "__jp")

	out := &lowered{ref: probe.ref, cols: probe.cols, origins: maps.Clone(probe.origins),
		n: probe.n, live: probe.live}
	if !j.Semi {
		for _, c := range j.Cols {
			if !slices.Contains(build.cols, c) {
				l.errf("build side lacks column %q", c)
			}
			out.ref = b.Upsert(out.ref, c, joined, c)
			if !slices.Contains(out.cols, c) {
				out.cols = append(out.cols, c)
			}
			out.origins[c] = build.origins[c]
		}
	}
	// Where the match flag is read, unmatched probe rows are ε in it.
	// Rather than a physical match-filter pass,
	// carry the flag as the liveness column: ε propagates through every
	// expression and fold, so dead rows never contribute.
	if live {
		l.nLive++
		mcol := fmt.Sprintf("__live%d", l.nLive)
		if out.live == "" {
			out.ref = b.Upsert(out.ref, mcol, b.Project("m", joined, match), "")
		} else {
			// Combine with the previous liveness: ε if either is ε.
			combined := b.Add(
				b.Arith(core.OpMultiply, "z", joined, match, l.b.Constant(0), ""),
				b.Arith(core.OpMultiply, "z", out.ref, out.live, l.b.Constant(0), ""))
			one := b.Add(combined, b.Constant(1))
			out.ref = b.Upsert(out.ref, mcol, one, "")
		}
		out.cols = append(out.cols, mcol)
		out.live = mcol
	}
	return out
}

// exprEqual compares two expressions by their canonical encodings (an
// aggregate's group by its id), equal exactly for equal expressions,
// encoded one after the other into the lowerer's reused buffer.
func (l *lowerer) exprEqual(a, b Expr) bool {
	cols := l.cols
	ka, okA := appendExpr(l.enc[:0], a, l)
	kab, okB := appendExpr(ka, b, l)
	l.enc, l.cols = kab, cols
	return okA && okB && bytes.Equal(kab[:len(ka)], kab[len(ka):])
}

// aggIn is one distinct aggregate a GroupAgg folds: Sum, Count, Min or Max
// of an input expression, nil for a count of rows.
type aggIn struct {
	fn  AggFunc
	e   Expr
	col string   // the input column
	ref core.Ref // the fold
}

// aggPlan is how a GroupAgg computes its folds' inputs: ins, the distinct
// folds, named by a Map over its input, in (pushed: below the input's
// filter); per aggregate its fold (vals) and an average's count (divs).
type aggPlan struct {
	ins, vals, divs []*aggIn
	in              *node
	pushed          bool
}

// planAgg plans g, whose input's analysis is input, once: one fold per
// distinct (function, input), where an Avg is a Sum and a Count that reuse
// equal ones of the query's own, and a count of a column that is ε exactly
// where the row is counts rows. The input it folds is read for g's keys
// and the folds' inputs.
func (l *lowerer) planAgg(b []byte, g GroupAgg, input *node) *aggPlan {
	p := &aggPlan{vals: make([]*aggIn, len(g.Aggs)), divs: make([]*aggIn, len(g.Aggs))}
	intern := func(fn AggFunc, e Expr) *aggIn {
		if col := l.scanColumn(input, e); fn == Count && col != nil && col.AllValid() {
			e = nil // a count of a column with no ε counts rows
		}
		for _, in := range p.ins {
			if in.fn == fn && l.exprEqual(in.e, e) {
				return in
			}
		}
		in := &aggIn{fn: fn, e: e, col: fmt.Sprintf("__a%d", len(p.ins))}
		p.ins = append(p.ins, in)
		return in
	}
	for i, a := range g.Aggs {
		if a.Func == Avg {
			p.vals[i], p.divs[i] = intern(Sum, a.E), intern(Count, a.E)
		} else {
			p.vals[i] = intern(a.Func, a.E)
		}
	}
	// A count sums an integer 1 that is ε exactly where its input is, and
	// computes nothing from the value: e > e is 0 for every value, ±Inf and
	// NaN included. A count of rows counts a scan column's.
	named := make([]NamedExpr, len(p.ins))
	for i, a := range p.ins {
		e := a.e
		if a.fn == Count {
			if e == nil {
				if input.anchor == "" {
					// No base column anywhere under this aggregate (a
					// zero-column Scan): an error, not a crash — the sql
					// planner always seeds at least one scanned column.
					panic(lowerErr{fmt.Errorf("rel: count(*) over a scan with no columns")})
				}
				e = Col{Name: input.anchor}
			}
			e = Not{E: Bin{Op: Gt, L: e, R: e}}
		}
		named[i] = NamedExpr{Name: a.col, E: e}
	}

	// Push the aggregate input (and group id) computation below a
	// terminal filter: the compiler then fuses predicate evaluation,
	// selection and aggregation into one fragment (paper Figure 8).
	if f, ok := g.In.(Filter); ok && len(g.Keys) == 0 {
		// Global aggregation: pushing the aggregate inputs below the
		// filter lets the compiler fuse predicate, selection and
		// aggregation into one fragment. For grouped aggregation the
		// filter output materializes anyway (the scatter seam), so the
		// inputs stay symbolic above it — materializing only the base
		// columns, not every derived expression.
		m := l.analyse(b, Map{In: analysed{input.in[0]}, Outs: named})
		p.in, p.pushed = l.analyse(b, Filter{In: analysed{m}, Pred: f.Pred}), true
	} else {
		p.in = l.analyse(b, Map{In: analysed{input}, Outs: named})
	}
	reads := slices.Clone(g.Keys)
	for _, a := range p.ins {
		reads = append(reads, a.col)
	}
	p.in.read(reads)
	return p
}

// lowerGroupAgg lowers g as a relation: one fold per distinct aggregate
// input (planAgg), then the keys, decoded from the group id, and the
// aggregates, an average divided out, scattered to the slot of their group
// id (identity hashing: a group at key − min, an empty group ε), or for a
// global aggregate gathered to its one slot.
func (l *lowerer) lowerGroupAgg(g GroupAgg, r *node) *lowered {
	b := l.b
	p, ins := r.plan, r.plan.ins
	// Above the input, its folds' inputs are computed for g alone; pushed
	// below its filter, they are shared as the filter is.
	var cur *lowered
	if p.pushed {
		cur = l.lower(p.in)
	} else {
		cur = l.lowerMap(p.in.n.(Map), l.lower(p.in.in[0]))
	}
	// Anchor every aggregate input on the liveness column: rows a filtered
	// join dropped are ε there and must contribute nothing. (This also
	// covers inputs computed below a pushed-down filter.)
	if cur.live != "" {
		for _, in := range ins {
			anchored := b.Add(
				b.Project("val", cur.ref, in.col),
				b.Arith(core.OpMultiply, "z", cur.ref, cur.live, b.Constant(0), ""))
			cur = &lowered{ref: b.Upsert(cur.ref, in.col, anchored, ""),
				cols: cur.cols, origins: cur.origins, n: cur.n, live: cur.live}
		}
	}

	out := &lowered{origins: map[string]origin{}}
	add := func(name string, v core.Ref) {
		if out.cols == nil {
			out.ref = b.Project(name, v, "")
		} else {
			out.ref = b.Upsert(out.ref, name, v, "")
		}
		out.cols = append(out.cols, name)
	}
	var groups core.Ref
	if len(g.Keys) == 0 {
		// Fused, the filter-fold folds the selection's runs already.
		l.globalFolds(cur, ins, p.pushed && cur.live == "")
	} else {
		var doms []Domain
		groups, doms = l.groupedFolds(g, cur, ins)
		// Key i is shift + (g / stride) mod card; the first needs no
		// modulo, and a step that changes nothing is left out.
		out.n = 1
		for _, d := range doms {
			out.n *= int(d.Max - d.Min + 1)
		}
		stride := int64(out.n)
		for i, k := range g.Keys {
			card := doms[i].Max - doms[i].Min + 1
			stride /= card
			v := groups
			if stride > 1 {
				v = b.Divide(v, b.Constant(stride))
			}
			if i > 0 {
				v = b.Modulo(v, b.Constant(card))
			}
			if doms[i].Min != 0 {
				v = b.Add(v, b.Constant(doms[i].Min))
			}
			add(k, v)
			o := cur.origins[k]
			if o.table == nil {
				o.col = k
			}
			out.origins[k] = origin{table: o.table, col: o.col, dom: &doms[i]}
		}
	}
	for i, a := range g.Aggs {
		v := p.vals[i].ref
		if d := p.divs[i]; d != nil { // in floats, as a float column's sum is
			if col := l.scanColumn(r.in[0], p.vals[i].e); col == nil || col.Kind() != vector.Float {
				v = b.Multiply(v, b.ConstantF(1))
			}
			v = b.Divide(v, d.ref)
		}
		add(a.As, v)
	}
	if len(g.Keys) == 0 {
		out.ref, out.n = b.Gather(out.ref, b.Constant(0), ""), 1
	} else {
		out.ref = b.Scatter(out.ref, b.RangeN(0, out.n, 1), "", groups, "")
	}
	return out
}

// scanColumn returns the stored column e when e is a column of r's base
// scan that r passes on unchanged: ε there exactly where every other such
// column is, at the rows a filter dropped. Else it is nil.
func (l *lowerer) scanColumn(r *node, e Expr) *vector.Column {
	c, ok := e.(Col)
	if !ok || r.base == nil || slices.Contains(r.over, c.Name) {
		return nil
	}
	s := r.base.n.(Scan)
	if t := l.cat.Table(s.Table); t != nil && slices.Contains(s.Cols, c.Name) {
		return t.Col(c.Name)
	}
	return nil
}

// fold lowers one controlled fold of an aggregate function; a count sums
// its ones.
func (l *lowerer) fold(fn AggFunc, v core.Ref, kp, col string) core.Ref {
	switch fn {
	case Min:
		return l.b.FoldMin(v, kp, col)
	case Max:
		return l.b.FoldMax(v, kp, col)
	}
	return l.b.FoldSum(v, kp, col)
}

// globalFolds lowers the global aggregates. Over more than 2 × grain rows
// they fold hierarchically, as the paper's global aggregates do: a
// controlled fold over about grain runs of ⌈n/grain⌉ rows each — work items
// the executor can spread over cores — then a global fold of the partials. The program
// fixes the summation order, so every engine sums alike. A fused
// filter-fold folds over the selection's runs already.
func (l *lowerer) globalFolds(cur *lowered, ins []*aggIn, fused bool) {
	b := l.b
	if fused || cur.n <= 2*grain {
		for _, in := range ins {
			in.ref = l.fold(in.fn, cur.ref, "", in.col)
		}
		return
	}
	runLen := (cur.n + grain - 1) / grain
	runs := b.Upsert(cur.ref, "__run", b.Divide(b.Range(cur.ref), b.Constant(int64(runLen))), "")
	var parts core.Ref
	for i, in := range ins {
		p := l.fold(in.fn, runs, "__run", in.col)
		if i == 0 {
			parts = b.Project(in.col, p, "")
		} else {
			parts = b.Upsert(parts, in.col, p, "")
		}
	}
	for _, in := range ins {
		in.ref = l.fold(in.fn, parts, "", in.col)
	}
}

// groupedFolds lowers grouped aggregation: the keys identity-hash into a
// dense group id, a virtual scatter partitions the rows by it, and one
// controlled fold per aggregate runs over the partitions (the paper's
// Figure 10/11). The keys come back from the group id itself: a max of the
// id, ε for a group without a live row, from which every key is decoded
// — instead of one fold per key. It returns that fold and the keys'
// domains.
func (l *lowerer) groupedFolds(g GroupAgg, cur *lowered, ins []*aggIn) (core.Ref, []Domain) {
	b := l.b
	var gid core.Ref
	K := int64(1)
	doms := make([]Domain, len(g.Keys))
	for i, k := range g.Keys {
		if i < len(g.Domains) && g.Domains[i].Max >= g.Domains[i].Min && g.Domains[i] != (Domain{}) {
			doms[i] = g.Domains[i]
		} else {
			doms[i].Min, doms[i].Max = l.domain(cur, k)
		}
		K *= doms[i].Max - doms[i].Min + 1
	}
	if K <= 0 || K > 1<<26 {
		l.errf("group key domain too large (%d)", K)
	}
	for i, k := range g.Keys {
		part := b.Subtract(b.Project("val", cur.ref, k), b.Constant(doms[i].Min))
		if i == 0 {
			gid = part
		} else {
			gid = b.Add(b.Multiply(gid, b.Constant(doms[i].Max-doms[i].Min+1)), part)
		}
	}
	if cur.live != "" {
		// Dead rows must not land in any group.
		gid = b.Add(gid, b.Arith(core.OpMultiply, "z", cur.ref, cur.live, b.Constant(0), ""))
	}
	withG := b.Upsert(cur.ref, "__g", gid, "")
	pivots := b.RangeN(0, int(K), 1)
	pos := b.Partition("__p", withG, "__g", pivots, "")
	withPos := b.Upsert(withG, "__p", pos, "__p")
	scattered := b.Scatter(withG, withG, "", withPos, "__p")
	for _, in := range ins {
		in.ref = l.fold(in.fn, scattered, "__g", in.col)
	}
	return b.FoldMax(scattered, "__g", "__g"), doms
}
