package rel

import (
	"fmt"

	"voodoo/internal/core"
	"voodoo/internal/storage"
)

// origin tracks which base-table column an attribute came from, so joins
// and group-bys can size their open tables from min/max metadata — the
// paper's "identity hashing on open hashtables ... derive their size from
// the input domain (using only min and max)".
type origin struct {
	table *storage.Table
	col   string
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

// aggOut describes one output column of the final aggregation for the
// result assembler.
type aggOut struct {
	name     string
	ref      core.Ref
	fn       AggFunc
	divideBy string // Avg: name of the hidden count column
	hidden   bool   // not shown in the result (Avg count companions)
	isKey    bool
	table    *storage.Table // key decoding (dictionary) — nil for plain values
	col      string
}

// lowerer lowers one query; it is single-use.
type lowerer struct {
	b     *core.Builder
	cat   *storage.Catalog
	outs  []aggOut
	nLive int // match-column counter
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

// lower produces the Voodoo statements for node n.
func (l *lowerer) lower(n Node) *lowered {
	switch x := n.(type) {
	case Scan:
		return l.lowerScan(x)
	case Filter:
		return l.lowerFilter(x)
	case Map:
		return l.lowerMap(x)
	case IndexJoin:
		return l.lowerJoin(x)
	case GroupAgg:
		return l.lowerGroupAgg(x)
	}
	l.errf("unknown node %T", n)
	return nil
}

func (l *lowerer) lowerScan(s Scan) *lowered {
	t := l.cat.Table(s.Table)
	if t == nil {
		if qe := l.cat.QuarantineErr(s.Table); qe != nil {
			panic(lowerErr{fmt.Errorf("rel: table %q is quarantined: %w", s.Table, qe)})
		}
		l.errf("no table %q", s.Table)
	}
	v := l.b.Load(s.Table)
	if len(s.Cols) == 0 {
		l.errf("scan of %s lists no columns", s.Table)
	}
	// Prune to the requested columns so joins and filters never move
	// unused attributes.
	cur := l.b.Project(s.Cols[0], v, s.Cols[0])
	for _, c := range s.Cols[1:] {
		if t.Col(c) == nil {
			l.errf("table %s has no column %q", s.Table, c)
		}
		cur = l.b.Upsert(cur, c, l.b.Project("val", v, c), "")
	}
	lo := &lowered{ref: cur, cols: s.Cols, origins: map[string]origin{}, n: t.N}
	for _, c := range s.Cols {
		lo.origins[c] = origin{table: t, col: c}
	}
	return lo
}

// expr lowers a scalar expression against the current relation, returning a
// single-attribute vector aligned with it.
func (l *lowerer) expr(cur *lowered, e Expr) core.Ref {
	b := l.b
	switch x := e.(type) {
	case Col:
		if !has(cur.cols, x.Name) {
			l.errf("no column %q (have %v)", x.Name, cur.cols)
		}
		return b.Project("val", cur.ref, x.Name)
	case IntLit:
		return b.Constant(x.V)
	case FloatLit:
		return b.ConstantF(x.V)
	case Not:
		return b.Equals(l.expr(cur, x.E), b.Constant(0))
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
		rv := l.expr(cur, x.R)
		switch x.Op {
		case Add:
			return b.Add(lv, rv)
		case Sub:
			return b.Subtract(lv, rv)
		case Mul:
			return b.Multiply(lv, rv)
		case Div:
			return b.Divide(lv, rv)
		case Mod:
			return b.Modulo(lv, rv)
		case Eq:
			return b.Equals(lv, rv)
		case Ne:
			return b.Equals(b.Equals(lv, rv), b.Constant(0))
		case Gt:
			return b.Greater(lv, rv)
		case Ge:
			return b.GreaterEqual(lv, "", rv, "")
		case Lt:
			return b.Greater(rv, lv)
		case Le:
			return b.GreaterEqual(rv, "", lv, "")
		case And:
			return b.And(lv, rv)
		case Or:
			return b.Or(lv, rv)
		}
	}
	l.errf("unknown expr %T", e)
	return -1
}

func (l *lowerer) lowerFilter(f Filter) *lowered {
	cur := l.lower(f.In)
	pred := l.expr(cur, f.Pred)
	return l.filterByPred(cur, pred)
}

// filterByPred applies a 0/1 predicate vector: controlled fold-select with
// a generated control vector exposing `grain` parallel runs, then a gather
// of every visible column (the compiler fuses these, paper Figure 8).
func (l *lowerer) filterByPred(cur *lowered, pred core.Ref) *lowered {
	b := l.b
	runLen := (cur.n + grain - 1) / grain
	if runLen < 1 {
		runLen = 1
	}
	ids := b.Range(pred)
	fold := b.Project("fold", b.Divide(ids, b.Constant(int64(runLen))), "")
	withFold := b.Zip("p", pred, "", "fold", fold, "fold")
	sel := b.FoldSelect(withFold, "fold", "p")
	out := b.Gather(cur.ref, sel, "")
	return &lowered{ref: out, cols: cur.cols, origins: cur.origins, n: cur.n, live: cur.live}
}

func (l *lowerer) lowerMap(m Map) *lowered {
	cur := l.lower(m.In)
	out := &lowered{ref: cur.ref, cols: cur.cols, origins: cur.origins, n: cur.n,
		live: cur.live}
	for _, ne := range m.Outs {
		v := l.expr(out, ne.E)
		out.ref = l.b.Upsert(out.ref, ne.Name, v, "")
		if !has(out.cols, ne.Name) {
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
	st, ok := o.table.Stats(o.col)
	if !ok {
		l.errf("no stats for %s.%s", o.table.Name, o.col)
	}
	return st.MinI, st.MaxI
}

func (l *lowerer) lowerJoin(j IndexJoin) *lowered {
	b := l.b
	build := l.lower(j.Build)
	probe := l.lower(j.Probe)
	if !has(build.cols, j.BuildKey) {
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
	if !j.Semi && int64(build.n) > size {
		panic(lowerErr{&BuildKeyError{Key: j.BuildKey, Rows: build.n, Min: minK, Max: maxK}})
	}

	// Build: scatter carried columns plus a match flag into the open
	// table at position key-min (identity hashing). Rows the build side
	// dropped (ε liveness from its own filtered joins) must not enter the
	// table: anchoring every scattered value on the liveness column turns
	// their stores into ε slots.
	anchor := func(v core.Ref) core.Ref {
		if build.live == "" {
			return v
		}
		return b.Add(v, b.Arith(core.OpMultiply, "z", build.ref, build.live, b.Constant(0), ""))
	}
	keyVec := b.Project("val", build.ref, j.BuildKey)
	pos := b.Subtract(anchor(keyVec), b.Constant(minK))
	src := b.Project("__m", anchor(b.Multiply(keyVec, b.Constant(0))), "")
	src = b.Upsert(src, "__m", b.Add(b.Project("__m", src, "__m"), b.Constant(1)), "")
	for _, c := range j.Cols {
		if !has(build.cols, c) {
			l.errf("build side lacks column %q", c)
		}
		src = b.Upsert(src, c, anchor(b.Project("val", build.ref, c)), "")
	}
	withPos := b.Upsert(src, "__pos", pos, "")
	sizeVec := b.RangeN(0, int(size), 1)
	table := b.Scatter(src, sizeVec, "", withPos, "__pos")

	// Probe: gather through key-min.
	ppos := b.Subtract(b.Project("val", probe.ref, j.ProbeKey), b.Constant(minK))
	probeWithPos := b.Upsert(probe.ref, "__jp", ppos, "")
	joined := b.Gather(table, probeWithPos, "__jp")

	out := &lowered{ref: probe.ref, cols: probe.cols, origins: probe.origins,
		n: probe.n, live: probe.live}
	if !j.Semi {
		for _, c := range j.Cols {
			out.ref = b.Upsert(out.ref, c, joined, c)
			if !has(out.cols, c) {
				out.cols = append(out.cols, c)
			}
			out.origins[c] = build.origins[c]
		}
	}
	// A filtered (or semi) build side leaves unmatched probe rows as ε in
	// the gathered match flag. Rather than a physical match-filter pass,
	// carry the flag as the liveness column: ε propagates through every
	// expression and fold, so dead rows never contribute.
	if j.Semi || filtered(j.Build) {
		l.nLive++
		mcol := fmt.Sprintf("__live%d", l.nLive)
		if out.live == "" {
			out.ref = b.Upsert(out.ref, mcol, b.Project("m", joined, "__m"), "")
		} else {
			// Combine with the previous liveness: ε if either is ε.
			combined := b.Add(
				b.Arith(core.OpMultiply, "z", joined, "__m", l.b.Constant(0), ""),
				b.Arith(core.OpMultiply, "z", out.ref, out.live, l.b.Constant(0), ""))
			one := b.Add(combined, b.Constant(1))
			out.ref = b.Upsert(out.ref, mcol, one, "")
		}
		out.cols = append(out.cols, mcol)
		out.live = mcol
	}
	return out
}

// filtered reports whether the subtree can drop rows of its base table.
func filtered(n Node) bool {
	switch x := n.(type) {
	case Scan:
		return false
	case Map:
		return filtered(x.In)
	case Filter:
		return true
	case IndexJoin:
		return x.Semi || filtered(x.Probe) || filtered(x.Build)
	case GroupAgg:
		return true
	}
	return true
}

// firstDataCol finds a visible base column of a subtree, used to anchor
// count(*) expressions so that ε-padded rows never count.
func firstDataCol(n Node) string {
	switch x := n.(type) {
	case Scan:
		if len(x.Cols) == 0 {
			return ""
		}
		return x.Cols[0]
	case Filter:
		return firstDataCol(x.In)
	case Map:
		return firstDataCol(x.In)
	case IndexJoin:
		return firstDataCol(x.Probe)
	case GroupAgg:
		return firstDataCol(x.In)
	}
	return ""
}

func (l *lowerer) lowerGroupAgg(g GroupAgg) *lowered {
	b := l.b

	// Expand Avg into a Sum plus a hidden Count companion; rewrite every
	// count as an ε-aware sum (0*col + 1) so padding and missed joins
	// never count.
	type aggIn struct {
		spec     AggSpec
		col      string
		divideBy string
		hidden   bool
	}
	anchor := firstDataCol(g.In)
	var ins []aggIn
	for _, a := range g.Aggs {
		if a.Func == Avg {
			ins = append(ins,
				aggIn{spec: AggSpec{Func: Sum, E: a.E, As: a.As}, divideBy: a.As + "__cnt"},
				aggIn{spec: AggSpec{Func: Count, E: a.E, As: a.As + "__cnt"}, hidden: true})
			continue
		}
		ins = append(ins, aggIn{spec: a})
	}
	var named []NamedExpr
	for i := range ins {
		col := fmt.Sprintf("__a%d", i)
		a := ins[i].spec
		e := a.E
		if a.Func == Count {
			base := a.E
			if base == nil {
				if anchor == "" {
					// No base column anywhere under this aggregate (a
					// zero-column Scan): an error, not a crash — the sql
					// planner always seeds at least one scanned column.
					panic(lowerErr{fmt.Errorf("rel: count(*) over a scan with no columns")})
				}
				base = Col{Name: anchor}
			}
			e = Bin{Op: Add, L: Bin{Op: Mul, L: base, R: IntLit{V: 0}}, R: IntLit{V: 1}}
		}
		named = append(named, NamedExpr{Name: col, E: e})
		ins[i].col = col
	}

	// Push the aggregate input (and group id) computation below a
	// terminal filter: the compiler then fuses predicate evaluation,
	// selection and aggregation into one fragment (paper Figure 8).
	in := g.In
	if f, ok := in.(Filter); ok && len(g.Keys) == 0 {
		// Global aggregation: pushing the aggregate inputs below the
		// filter lets the compiler fuse predicate, selection and
		// aggregation into one fragment. For grouped aggregation the
		// filter output materializes anyway (the scatter seam), so the
		// inputs stay symbolic above it — materializing only the base
		// columns, not every derived expression.
		in = Filter{In: Map{In: f.In, Outs: named}, Pred: f.Pred}
		named = nil
	}
	cur := l.lower(in)
	for i := range named {
		v := l.expr(cur, named[i].E)
		cur = &lowered{ref: b.Upsert(cur.ref, named[i].Name, v, ""),
			cols: append(cur.cols, named[i].Name), origins: cur.origins,
			n: cur.n, live: cur.live}
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

	if len(g.Keys) == 0 {
		// Global aggregation: one controlled fold per aggregate.
		for _, in := range ins {
			ref := l.globalFold(cur, in.spec, in.col)
			l.outs = append(l.outs, aggOut{name: in.spec.As, ref: ref,
				fn: in.spec.Func, divideBy: in.divideBy, hidden: in.hidden})
		}
		return cur
	}

	// Grouped: identity-hash the keys into a dense group id.
	var gid core.Ref
	K := int64(1)
	shifts := make([]int64, len(g.Keys))
	cards := make([]int64, len(g.Keys))
	for i, k := range g.Keys {
		var minK, maxK int64
		if i < len(g.Domains) && g.Domains[i].Max >= g.Domains[i].Min && g.Domains[i] != (Domain{}) {
			minK, maxK = g.Domains[i].Min, g.Domains[i].Max
		} else {
			minK, maxK = l.domain(cur, k)
		}
		shifts[i] = minK
		cards[i] = maxK - minK + 1
		K *= cards[i]
	}
	if K <= 0 || K > 1<<26 {
		l.errf("group key domain too large (%d)", K)
	}
	for i, k := range g.Keys {
		part := b.Subtract(b.Project("val", cur.ref, k), b.Constant(shifts[i]))
		if i == 0 {
			gid = part
		} else {
			gid = b.Add(b.Multiply(gid, b.Constant(cards[i])), part)
		}
	}
	if cur.live != "" {
		// Dead rows must not land in any group.
		gid = b.Add(gid, b.Arith(core.OpMultiply, "z", cur.ref, cur.live, b.Constant(0), ""))
	}
	// Anchored key-recovery columns must exist before the scatter.
	keyCols := make([]string, len(g.Keys))
	copy(keyCols, g.Keys)
	if cur.live != "" {
		for i, k := range g.Keys {
			kc := fmt.Sprintf("__k%d", i)
			anchored := b.Add(
				b.Project("val", cur.ref, k),
				b.Arith(core.OpMultiply, "z", cur.ref, cur.live, b.Constant(0), ""))
			cur = &lowered{ref: b.Upsert(cur.ref, kc, anchored, ""),
				cols: append(cur.cols, kc), origins: cur.origins, n: cur.n, live: cur.live}
			keyCols[i] = kc
		}
	}
	withG := b.Upsert(cur.ref, "__g", gid, "")
	pivots := b.RangeN(0, int(K), 1)
	pos := b.Partition("__p", withG, "__g", pivots, "")
	withPos := b.Upsert(withG, "__p", pos, "__p")
	scattered := b.Scatter(withG, withG, "", withPos, "__p")

	// One controlled fold per aggregate over the (virtually) scattered
	// vector — the paper's Figure 10/11.
	for _, in := range ins {
		var ref core.Ref
		switch in.spec.Func {
		case Min:
			ref = b.FoldMin(scattered, "__g", in.col)
		case Max:
			ref = b.FoldMax(scattered, "__g", in.col)
		default: // Sum, Count, Avg(sum part)
			ref = b.FoldSum(scattered, "__g", in.col)
		}
		l.outs = append(l.outs, aggOut{name: in.spec.As, ref: ref,
			fn: in.spec.Func, divideBy: in.divideBy, hidden: in.hidden})
	}
	// Key recovery: fold the (liveness-anchored) key per group so dead
	// rows cannot conjure phantom groups.
	for i, k := range g.Keys {
		ref := b.FoldMin(scattered, "__g", keyCols[i])
		_ = k
		o := cur.origins[k]
		var tbl *storage.Table
		col := k
		if o.table != nil {
			tbl, col = o.table, o.col
		}
		l.outs = append(l.outs, aggOut{name: k, ref: ref, isKey: true,
			table: tbl, col: col})
	}
	return cur
}

// globalFold lowers one global aggregate.
func (l *lowerer) globalFold(cur *lowered, spec AggSpec, col string) core.Ref {
	b := l.b
	switch spec.Func {
	case Min:
		return b.FoldMin(cur.ref, "", col)
	case Max:
		return b.FoldMax(cur.ref, "", col)
	default:
		return b.FoldSum(cur.ref, "", col)
	}
}

func has(cols []string, c string) bool {
	for _, x := range cols {
		if x == c {
			return true
		}
	}
	return false
}
