package sql

import (
	"fmt"
	"time"

	"voodoo/internal/rel"
	"voodoo/internal/storage"
)

// Plan binds a parsed statement to a catalog and produces the relational
// query: joins become metadata index joins, string literals resolve to
// dictionary codes, and non-aggregate select items must be group keys.
func Plan(stmt *SelectStmt, cat *storage.Catalog) (rel.Query, error) {
	pl := &planner{stmt: stmt, cat: cat, colTable: map[string]string{}}
	return pl.plan()
}

type planner struct {
	stmt *SelectStmt
	cat  *storage.Catalog
	// colTable maps a column name to its table.
	colTable map[string]string
	tables   []string
	// needed accumulates the columns each table must expose.
	needed map[string]map[string]bool
}

func (pl *planner) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s", fmt.Sprintf(format, args...))
}

func (pl *planner) plan() (rel.Query, error) {
	var q rel.Query
	// Register tables and their columns.
	pl.tables = append([]string{pl.stmt.From}, tableNames(pl.stmt.Joins)...)
	pl.needed = map[string]map[string]bool{}
	for _, t := range pl.tables {
		// A quarantined table propagates its typed corruption error so the
		// serving layer can answer 503 (data unavailable), not 400.
		tb, err := pl.cat.Lookup(t)
		if err != nil {
			return q, fmt.Errorf("sql: %w", err)
		}
		pl.needed[t] = map[string]bool{}
		for _, d := range tb.Defs() {
			if prev, dup := pl.colTable[d.Name]; dup && prev != t {
				return q, pl.errf("ambiguous column %q (in %s and %s)", d.Name, prev, t)
			}
			pl.colTable[d.Name] = t
		}
	}

	// Collect column requirements.
	for _, it := range pl.stmt.Items {
		if it.E != nil {
			if err := pl.noteCols(it.E); err != nil {
				return q, err
			}
		}
	}
	if pl.stmt.Where != nil {
		if err := pl.noteCols(pl.stmt.Where); err != nil {
			return q, err
		}
	}
	for _, k := range pl.stmt.GroupBy {
		if err := pl.noteCols(ColRef{Name: k}); err != nil {
			return q, err
		}
	}
	for _, j := range pl.stmt.Joins {
		if err := pl.noteCols(ColRef{Name: j.L}); err != nil {
			return q, err
		}
		if err := pl.noteCols(ColRef{Name: j.R}); err != nil {
			return q, err
		}
	}

	// A query referencing no columns at all (SELECT COUNT(*) FROM t with
	// no WHERE) still needs one column scanned: COUNT(*) lowers to an
	// ε-aware sum anchored on a base column, and a zero-column scan has
	// nothing to size its fragments by.
	if len(pl.needed[pl.stmt.From]) == 0 {
		if defs := pl.cat.Table(pl.stmt.From).Defs(); len(defs) > 0 {
			pl.needed[pl.stmt.From][defs[0].Name] = true
		}
	}

	// Probe stream: the FROM table; each JOIN adds an index join whose
	// build side is the joined table.
	var root rel.Node = rel.Scan{Table: pl.stmt.From, Cols: keys(pl.needed[pl.stmt.From])}

	// Predicate pushdown: conjuncts that reference only the probe table
	// filter before the joins.
	var pushed, rest []Expr
	splitConjuncts(pl.stmt.Where, func(e Expr) {
		if pl.onlyTable(e, pl.stmt.From) {
			pushed = append(pushed, e)
		} else {
			rest = append(rest, e)
		}
	})
	if len(pushed) > 0 {
		pred, err := pl.convert(conjoin(pushed))
		if err != nil {
			return q, err
		}
		root = rel.Filter{In: root, Pred: pred}
	}

	for _, j := range pl.stmt.Joins {
		probeCol, buildCol := j.L, j.R
		if pl.colTable[probeCol] == j.Table {
			probeCol, buildCol = buildCol, probeCol
		}
		if pl.colTable[buildCol] != j.Table {
			return q, pl.errf("join condition %s = %s does not reference %s", j.L, j.R, j.Table)
		}
		var cols []string
		for _, c := range keys(pl.needed[j.Table]) {
			if c != buildCol {
				cols = append(cols, c)
			}
		}
		buildCols := append([]string{buildCol}, cols...)
		root = rel.IndexJoin{
			Probe:    root,
			ProbeKey: probeCol,
			Build:    rel.Scan{Table: j.Table, Cols: buildCols},
			BuildKey: buildCol,
			Cols:     cols,
		}
	}
	if len(rest) > 0 {
		pred, err := pl.convert(conjoin(rest))
		if err != nil {
			return q, err
		}
		root = rel.Filter{In: root, Pred: pred}
	}

	// Aggregation.
	var aggs []rel.AggSpec
	outNames := map[string]bool{}
	for i, it := range pl.stmt.Items {
		if it.Agg == "" {
			c, ok := it.E.(ColRef)
			if !ok {
				return q, pl.errf("non-aggregate select items must be plain group columns")
			}
			if !contains(pl.stmt.GroupBy, c.Name) {
				return q, pl.errf("column %q must appear in GROUP BY", c.Name)
			}
			continue
		}
		as := it.Alias
		if as == "" {
			as = fmt.Sprintf("agg%d", i)
		}
		outNames[as] = true
		var fn rel.AggFunc
		switch it.Agg {
		case "SUM":
			fn = rel.Sum
		case "COUNT":
			fn = rel.Count
		case "AVG":
			fn = rel.Avg
		case "MIN":
			fn = rel.Min
		case "MAX":
			fn = rel.Max
		}
		var e rel.Expr
		if it.E != nil {
			var err error
			e, err = pl.convert(it.E)
			if err != nil {
				return q, err
			}
		}
		aggs = append(aggs, rel.AggSpec{Func: fn, E: e, As: as})
	}
	if len(aggs) == 0 {
		return q, pl.errf("the select list needs at least one aggregate " +
			"(plain projections would materialize the full result, which the paper's evaluation avoids)")
	}
	q.Root = rel.GroupAgg{In: root, Keys: pl.stmt.GroupBy, Aggs: aggs}

	// HAVING filters the aggregate, a relation whose columns are the group
	// keys and the output aliases, with WHERE's expression language.
	if pl.stmt.Having != nil {
		var err error
		colRefs(pl.stmt.Having, func(c ColRef) {
			if err == nil && !outNames[c.Name] && !contains(pl.stmt.GroupBy, c.Name) {
				err = pl.errf("HAVING column %q is not in the output", c.Name)
			}
		})
		if err != nil {
			return q, err
		}
		pred, err := pl.convert(pl.stmt.Having)
		if err != nil {
			return q, err
		}
		q.Root = rel.Filter{In: q.Root, Pred: pred}
	}

	// ORDER BY / LIMIT run on the assembled result (paper §5.2 drops them
	// inside the algebra).
	for _, o := range pl.stmt.OrderBy {
		if !outNames[o.Col] && !contains(pl.stmt.GroupBy, o.Col) {
			return q, pl.errf("ORDER BY column %q is not in the output", o.Col)
		}
		q.OrderBy = append(q.OrderBy, rel.OrderKey{Col: o.Col, Desc: o.Desc})
	}
	q.Limit = pl.stmt.Limit
	return q, nil
}

func tableNames(js []JoinClause) []string {
	var out []string
	for _, j := range js {
		out = append(out, j.Table)
	}
	return out
}

func keys(m map[string]bool) []string {
	var out []string
	// Deterministic order: walk the table schema later; here insertion
	// order is lost, so sort.
	for k := range m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// colRefs calls fn for every column reference in e.
func colRefs(e Expr, fn func(ColRef)) {
	switch x := e.(type) {
	case ColRef:
		fn(x)
	case BinEx:
		colRefs(x.L, fn)
		colRefs(x.R, fn)
	case NotEx:
		colRefs(x.E, fn)
	case BetweenEx:
		colRefs(x.E, fn)
		colRefs(x.Lo, fn)
		colRefs(x.Hi, fn)
	case InEx:
		colRefs(x.E, fn)
		for _, v := range x.Vs {
			colRefs(v, fn)
		}
	}
}

// noteCols records which tables must provide which columns.
func (pl *planner) noteCols(e Expr) (err error) {
	colRefs(e, func(c ColRef) {
		t, ok := pl.colTable[c.Name]
		if !ok && err == nil {
			err = pl.errf("unknown column %q", c.Name)
		}
		if ok {
			pl.needed[t][c.Name] = true
		}
	})
	return err
}

// onlyTable reports whether every column in e belongs to table t.
func (pl *planner) onlyTable(e Expr, t string) bool {
	ok := true
	colRefs(e, func(c ColRef) { ok = ok && pl.colTable[c.Name] == t })
	return ok
}

// splitConjuncts decomposes a top-level AND tree.
func splitConjuncts(e Expr, emit func(Expr)) {
	if e == nil {
		return
	}
	if b, ok := e.(BinEx); ok && b.Op == "AND" {
		splitConjuncts(b.L, emit)
		splitConjuncts(b.R, emit)
		return
	}
	emit(e)
}

func conjoin(es []Expr) Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = BinEx{Op: "AND", L: out, R: e}
	}
	return out
}

// convert rewrites a SQL expression into a rel expression, resolving
// string literals against the dictionary of the column they compare with
// and DATE literals into day numbers.
func (pl *planner) convert(e Expr) (rel.Expr, error) {
	switch x := e.(type) {
	case ColRef:
		return rel.Col{Name: x.Name}, nil
	case NumLit:
		if x.IsInt {
			return rel.IntLit{V: x.I}, nil
		}
		return rel.FloatLit{V: x.F}, nil
	case DateLit:
		d, err := parseDate(x.S)
		if err != nil {
			return nil, err
		}
		return rel.IntLit{V: d}, nil
	case StrLit:
		return nil, pl.errf("string literal %q outside a comparison with a dictionary column", x.S)
	case NotEx:
		inner, err := pl.convert(x.E)
		if err != nil {
			return nil, err
		}
		return rel.Not{E: inner}, nil
	case BetweenEx:
		ve, err := pl.convert(x.E)
		if err != nil {
			return nil, err
		}
		lo, err := pl.convertAgainst(x.Lo, x.E)
		if err != nil {
			return nil, err
		}
		hi, err := pl.convertAgainst(x.Hi, x.E)
		if err != nil {
			return nil, err
		}
		return rel.Between{E: ve, Lo: lo, Hi: hi}, nil
	case InEx:
		ve, err := pl.convert(x.E)
		if err != nil {
			return nil, err
		}
		var vs []int64
		for _, v := range x.Vs {
			re, err := pl.convertAgainst(v, x.E)
			if err != nil {
				return nil, err
			}
			iv, ok := re.(rel.IntLit)
			if !ok {
				return nil, pl.errf("IN lists must hold integer, date or string literals")
			}
			vs = append(vs, iv.V)
		}
		return rel.InList{E: ve, Vs: vs}, nil
	case BinEx:
		l, err := pl.convertAgainst(x.L, x.R)
		if err != nil {
			return nil, err
		}
		r, err := pl.convertAgainst(x.R, x.L)
		if err != nil {
			return nil, err
		}
		op, ok := binOps[x.Op]
		if !ok {
			return nil, pl.errf("unknown operator %q", x.Op)
		}
		return rel.Bin{Op: op, L: l, R: r}, nil
	}
	return nil, pl.errf("unsupported expression %T", e)
}

var binOps = map[string]rel.BinOp{
	"+": rel.Add, "-": rel.Sub, "*": rel.Mul, "/": rel.Div, "%": rel.Mod,
	"=": rel.Eq, "<>": rel.Ne, "!=": rel.Ne,
	"<": rel.Lt, "<=": rel.Le, ">": rel.Gt, ">=": rel.Ge,
	"AND": rel.And, "OR": rel.Or,
}

// convertAgainst converts e, resolving string literals via the dictionary
// of the column on the other side of the comparison.
func (pl *planner) convertAgainst(e, other Expr) (rel.Expr, error) {
	s, ok := e.(StrLit)
	if !ok {
		return pl.convert(e)
	}
	col, ok := other.(ColRef)
	if !ok {
		return nil, pl.errf("string literal %q must compare with a column", s.S)
	}
	t := pl.cat.Table(pl.colTable[col.Name])
	if t == nil {
		return nil, pl.errf("column %q is not a table column; cannot compare with %q", col.Name, s.S)
	}
	if d, ok := t.Def(col.Name); !ok || d.Dict == nil {
		return nil, pl.errf("column %q is not a string column; cannot compare with %q", col.Name, s.S)
	}
	code, found := t.Code(col.Name, s.S)
	if !found {
		// An absent value matches nothing; -1 is outside every
		// dictionary's domain.
		return rel.IntLit{V: -1}, nil
	}
	return rel.IntLit{V: code}, nil
}

func parseDate(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("sql: bad date %q", s)
	}
	base := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	return int64(t.Sub(base).Hours() / 24), nil
}
