// Package hyper is the reproduction's HyPer baseline (paper Table 1 and
// §5.2): a pipelined, tuple-at-a-time query engine in the style of
// compiled LLVM plans. Operator chains run fused until a pipeline breaker
// (hash-join build, group-by); joins and aggregations use real hash tables
// with collision handling — HyPer does not exploit min/max metadata the way
// the Voodoo frontend does, which is exactly the difference the paper
// credits for Voodoo's wins on lookup-heavy queries.
//
// The engine counts the same event classes as the Voodoo executor
// (ALU ops, sequential and random memory traffic, data-dependent branches),
// so the device cost models price both systems identically. HyPer is
// CPU-only, per the paper.
package hyper

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"

	"voodoo/internal/exec"
	"voodoo/internal/rel"
	"voodoo/internal/storage"
)

// Engine executes rel plans tuple-at-a-time.
type Engine struct {
	Cat *storage.Catalog
	// Morsels is the number of parallel work units pipelines expose
	// (morsel-driven parallelism). 0 means 256.
	Morsels int
}

// Catalog implements rel.Runner.
func (e *Engine) Catalog() *storage.Catalog { return e.Cat }

// Run implements rel.Runner.
func (e *Engine) Run(q rel.Query) (res *rel.Result, stats *exec.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			if he, ok := r.(hyperErr); ok {
				res, stats, err = nil, nil, he.err
				return
			}
			panic(r)
		}
	}()
	ex := &executor{cat: e.Cat, morsels: e.Morsels, stats: &exec.Stats{}, groups: map[string]*relation{}}
	if ex.morsels <= 0 {
		ex.morsels = 256
	}
	result := ex.result(q.Root)
	ex.orderLimit(result, q)
	return result, ex.stats, nil
}

type hyperErr struct{ err error }

func errf(format string, args ...any) {
	panic(hyperErr{fmt.Errorf("hyper: "+format, args...)})
}

// relation is a streaming row source with a fixed schema.
type relation struct {
	schema []string
	// each produces rows into sink; a pipeline runs rows from one scan to
	// one breaker.
	each func(sink func(row []float64))
}

func (r *relation) colIdx(name string) int {
	for i, c := range r.schema {
		if c == name {
			return i
		}
	}
	errf("no column %q (have %v)", name, r.schema)
	return -1
}

// executor runs one query.
type executor struct {
	cat     *storage.Catalog
	morsels int
	stats   *exec.Stats
	cur     *exec.FragStats // the pipeline being counted
	nTables int             // hash-table id counter for working-set entries
	// groups holds each aggregate's groups by its plan, so an aggregate
	// the query reads twice (a view and its maximum) runs once.
	groups map[string]*relation
}

// newTable allocates a stable working-set id for one hash table.
func (ex *executor) newTable() int {
	ex.nTables++
	return ex.nTables
}

// noteRand charges n far random accesses against hash table id of the
// given size.
func noteRand(fs *exec.FragStats, id int, bytes, n int64) {
	if fs.RandByBuf == nil {
		fs.RandByBuf = map[int]exec.RandCount{}
	}
	e := fs.RandByBuf[id]
	e.Bytes = bytes
	e.Count += n
	fs.RandByBuf[id] = e
}

// pipeline opens a new counted pipeline (fragment) and returns its stats.
func (ex *executor) pipeline(name string, rows int) *exec.FragStats {
	ex.stats.Frags = append(ex.stats.Frags, exec.FragStats{
		Name:   "hyper:" + name,
		Extent: min(ex.morsels, max(rows, 1)),
		Intent: rows/ex.morsels + 1,
	})
	ex.cur = &ex.stats.Frags[len(ex.stats.Frags)-1]
	return ex.cur
}

// compileNode builds the streaming pipeline for a plan subtree. Building a
// node may fully run nested pipelines (join builds).
func (ex *executor) compileNode(n rel.Node) *relation {
	switch x := n.(type) {
	case rel.Scan:
		return ex.compileScan(x)
	case rel.Filter:
		in := ex.compileNode(x.In)
		pred := ex.compileExpr(in, x.Pred)
		return &relation{schema: in.schema, each: func(sink func([]float64)) {
			in.each(func(row []float64) {
				ex.cur.Guards++
				if pred(row) == 0 {
					return
				}
				ex.cur.GuardsPass++
				sink(row)
			})
		}}
	case rel.Map:
		in := ex.compileNode(x.In)
		schema := append(append([]string{}, in.schema...), nil...)
		var fns []func([]float64) float64
		for _, ne := range x.Outs {
			fns = append(fns, ex.compileExpr(in, ne.E))
			schema = append(schema, ne.Name)
		}
		return &relation{schema: schema, each: func(sink func([]float64)) {
			in.each(func(row []float64) {
				out := make([]float64, len(schema))
				copy(out, row)
				for i, f := range fns {
					out[len(in.schema)+i] = f(row)
				}
				ex.cur.FloatOps += int64(len(fns))
				sink(out)
			})
		}}
	case rel.IndexJoin:
		return ex.compileJoin(x)
	case rel.GroupAgg:
		return ex.aggregate(x)
	}
	errf("unknown node %T", n)
	return nil
}

func (ex *executor) compileScan(s rel.Scan) *relation {
	t := ex.cat.Table(s.Table)
	if t == nil {
		errf("no table %q", s.Table)
	}
	var getters []func(i int) float64
	for _, c := range s.Cols {
		col := t.Col(c)
		if col == nil {
			errf("table %s has no column %q", s.Table, c)
		}
		getters = append(getters, col.Float)
	}
	n := t.N
	ncols := len(s.Cols)
	return &relation{schema: append([]string{}, s.Cols...), each: func(sink func([]float64)) {
		fs := ex.cur // the pipeline currently running
		fs.Items += int64(n)
		fs.SeqBytes += int64(n) * int64(ncols) * 8
		row := make([]float64, ncols)
		for i := 0; i < n; i++ {
			for j, g := range getters {
				row[j] = g(i)
			}
			sink(row)
		}
	}}
}

// compileJoin runs the build side as its own pipeline into a Go hash table,
// then streams the probe side through it.
func (ex *executor) compileJoin(j rel.IndexJoin) *relation {
	build := ex.compileNode(j.Build)
	bkey := build.colIdx(j.BuildKey)
	var bcols []int
	for _, c := range j.Cols {
		bcols = append(bcols, build.colIdx(c))
	}

	// Build pipeline (a breaker): materialize the hash table.
	fs := ex.pipeline("build:"+j.BuildKey, 0)
	ht := map[int64][]float64{}
	build.each(func(row []float64) {
		vals := make([]float64, len(bcols))
		for i, c := range bcols {
			vals[i] = row[c]
		}
		ht[int64(row[bkey])] = vals
		// A hash insert costs hashing plus a random write.
		fs.IntOps += 4
		fs.RandAccesses++
	})
	tableBytes := int64(len(ht))*8*int64(1+len(bcols)) + int64(len(ht))*16
	tableID := ex.newTable()
	noteRand(fs, tableID, tableBytes, int64(len(ht)))

	probe := ex.compileNode(j.Probe)
	pkey := probe.colIdx(j.ProbeKey)
	schema := append([]string{}, probe.schema...)
	if !j.Semi {
		schema = append(schema, j.Cols...)
	}
	return &relation{schema: schema, each: func(sink func([]float64)) {
		probe.each(func(row []float64) {
			pfs := ex.cur
			// Hash probe: hash computation plus a random read into the
			// table, with collision-handling overhead.
			pfs.IntOps += 4
			noteRand(pfs, tableID, tableBytes, 1)
			vals, ok := ht[int64(row[pkey])]
			pfs.Guards++
			if !ok {
				return
			}
			pfs.GuardsPass++
			if j.Semi {
				sink(row)
				return
			}
			out := make([]float64, len(schema))
			copy(out, row)
			copy(out[len(probe.schema):], vals)
			sink(out)
		})
	}}
}

// compileExpr builds a row-function for a scalar expression. Event counts
// charge the pipeline running at call time.
func (ex *executor) compileExpr(in *relation, e rel.Expr) func([]float64) float64 {
	switch x := e.(type) {
	case rel.Col:
		i := in.colIdx(x.Name)
		return func(r []float64) float64 { return r[i] }
	case rel.IntLit:
		v := float64(x.V)
		return func([]float64) float64 { return v }
	case rel.FloatLit:
		return func([]float64) float64 { return x.V }
	case rel.Not:
		f := ex.compileExpr(in, x.E)
		return func(r []float64) float64 {
			if f(r) == 0 {
				return 1
			}
			return 0
		}
	case rel.InList:
		f := ex.compileExpr(in, x.E)
		set := map[float64]bool{}
		for _, v := range x.Vs {
			set[float64(v)] = true
		}
		n := int64(len(x.Vs))
		return func(r []float64) float64 {
			ex.cur.IntOps += n
			if set[f(r)] {
				return 1
			}
			return 0
		}
	case rel.Agg:
		if len(x.G.Keys) != 0 || len(x.G.Aggs) != 1 {
			errf("Agg takes a keyless aggregate of one column")
		}
		v := math.NaN() // evaluated once; an empty input has no value
		ex.aggregate(*x.G).each(func(r []float64) { v = r[0] })
		return func([]float64) float64 { return v }
	case rel.Between:
		f := ex.compileExpr(in, x.E)
		lo := ex.compileExpr(in, x.Lo)
		hi := ex.compileExpr(in, x.Hi)
		return func(r []float64) float64 {
			ex.cur.IntOps += 2
			v := f(r)
			if v >= lo(r) && v <= hi(r) {
				return 1
			}
			return 0
		}
	case rel.Bin:
		l := ex.compileExpr(in, x.L)
		rr := ex.compileExpr(in, x.R)
		op := x.Op
		return func(r []float64) float64 {
			ex.cur.FloatOps++
			a, b := l(r), rr(r)
			switch op {
			case rel.Add:
				return a + b
			case rel.Sub:
				return a - b
			case rel.Mul:
				return a * b
			case rel.Div:
				if b == 0 {
					errf("division by zero")
				}
				return a / b
			case rel.Mod:
				if int64(b) == 0 {
					errf("modulo by zero")
				}
				m := int64(a) % int64(b)
				if m < 0 {
					m += int64(b)
				}
				return float64(m)
			case rel.Eq:
				return b2f(a == b)
			case rel.Ne:
				return b2f(a != b)
			case rel.Lt:
				return b2f(a < b)
			case rel.Le:
				return b2f(a <= b)
			case rel.Gt:
				return b2f(a > b)
			case rel.Ge:
				return b2f(a >= b)
			case rel.And:
				return b2f(a != 0 && b != 0)
			case rel.Or:
				return b2f(a != 0 || b != 0)
			}
			errf("unknown binop %d", op)
			return 0
		}
	}
	errf("unknown expr %T", e)
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// aggState accumulates one group.
type aggState struct {
	key  []float64
	sums []float64
	cnts []float64
	mins []float64
	maxs []float64
}

// result runs the plan's root into result rows: a GroupAgg's groups — a
// global aggregate over no rows still answers one row of zeros — or the
// rows of a Filter over one.
func (ex *executor) result(root rel.Node) *rel.Result {
	f, filtered := root.(rel.Filter)
	g, ok := root.(rel.GroupAgg)
	if filtered {
		g, ok = f.In.(rel.GroupAgg)
	}
	if !ok {
		errf("the plan root must be a GroupAgg or a Filter over one")
	}
	in := ex.compileNode(root)
	if filtered {
		ex.pipeline("filter", 0)
	}
	res := &rel.Result{Cols: in.schema}
	add := func(r []float64) {
		row := make(rel.Row, len(r))
		for i, c := range in.schema {
			row[c] = r[i]
		}
		res.Rows = append(res.Rows, row)
	}
	in.each(add)
	if !filtered && len(g.Keys) == 0 && len(res.Rows) == 0 {
		add(make([]float64, len(in.schema)))
	}
	return res
}

// aggregate runs g as a pipeline of its own, a breaker: hash aggregation,
// or plain accumulators for a global aggregate. Its groups stream as rows
// of the keys then the aggregates; a global aggregate over no rows has
// none.
func (ex *executor) aggregate(g rel.GroupAgg) *relation {
	key := fmt.Sprintf("%#v", g)
	if r, ok := ex.groups[key]; ok {
		return r
	}
	in := ex.compileNode(g.In)
	var keyIdx []int
	for _, k := range g.Keys {
		keyIdx = append(keyIdx, in.colIdx(k))
	}
	var aggFns []func([]float64) float64
	for _, a := range g.Aggs {
		if a.E != nil {
			aggFns = append(aggFns, ex.compileExpr(in, a.E))
		} else {
			aggFns = append(aggFns, nil)
		}
	}
	fs := ex.pipeline("agg", 0)

	groups := map[[4]int64]*aggState{}
	update := func(st *aggState, row []float64) {
		for i, a := range g.Aggs {
			var v float64
			if aggFns[i] != nil {
				v = aggFns[i](row)
			}
			switch a.Func {
			case rel.Sum, rel.Avg:
				st.sums[i] += v
				st.cnts[i]++
			case rel.Count:
				st.sums[i]++
			case rel.Min:
				if st.cnts[i] == 0 || v < st.mins[i] {
					st.mins[i] = v
				}
				st.cnts[i]++
			case rel.Max:
				if st.cnts[i] == 0 || v > st.maxs[i] {
					st.maxs[i] = v
				}
				st.cnts[i]++
			}
		}
		fs.FloatOps += int64(len(g.Aggs))
	}

	in.each(func(row []float64) {
		var key [4]int64
		for i, k := range keyIdx {
			key[i] = int64(row[k])
		}
		st := groups[key]
		if st == nil {
			st = &aggState{
				key:  make([]float64, len(keyIdx)),
				sums: make([]float64, len(g.Aggs)),
				cnts: make([]float64, len(g.Aggs)),
				mins: make([]float64, len(g.Aggs)),
				maxs: make([]float64, len(g.Aggs)),
			}
			for i, k := range keyIdx {
				st.key[i] = row[k]
			}
			groups[key] = st
		}
		// Hash aggregation: hash + random access into the group table.
		fs.IntOps += 4
		fs.RandAccesses++
		update(st, row)
	})
	tableBytes := int64(len(groups)) * int64(8*(4+3*len(g.Aggs))+32)
	noteRand(fs, ex.newTable(), max(tableBytes, 64), fs.RandAccesses)

	var rows [][]float64
	for _, st := range groups {
		row := slices.Clone(st.key)
		for i, a := range g.Aggs {
			var v float64
			switch a.Func {
			case rel.Sum, rel.Count:
				v = st.sums[i]
			case rel.Avg:
				if st.cnts[i] > 0 {
					v = st.sums[i] / st.cnts[i]
				}
			case rel.Min:
				v = st.mins[i]
			case rel.Max:
				v = st.maxs[i]
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	r := &relation{schema: slices.Clone(g.Keys), each: func(sink func([]float64)) {
		for _, row := range rows {
			sink(row)
		}
	}}
	for _, a := range g.Aggs {
		r.schema = append(r.schema, a.As)
	}
	ex.groups[key] = r
	return r
}

// orderLimit applies the query's order-by and limit. HyPer evaluates them
// with a priority queue (paper §5.2): top-k via a bounded heap, otherwise a
// full sort; the heap's work is charged to the last pipeline.
func (ex *executor) orderLimit(res *rel.Result, q rel.Query) {
	if q.OrderBy != nil && q.Limit > 0 && q.Limit < len(res.Rows) {
		h := &rowHeap{less: q.OrderBy}
		for _, r := range res.Rows {
			ex.cur.IntOps += 8 // heap maintenance ~ log k comparisons
			heap.Push(h, r)
			if h.Len() > q.Limit {
				heap.Pop(h)
			}
		}
		sorted := make([]rel.Row, h.Len())
		for i := len(sorted) - 1; i >= 0; i-- {
			sorted[i] = heap.Pop(h).(rel.Row)
		}
		res.Rows = sorted
	} else if q.OrderBy != nil {
		sort.SliceStable(res.Rows, func(i, j int) bool { return q.OrderBy(res.Rows[i], res.Rows[j]) })
		if q.Limit > 0 && len(res.Rows) > q.Limit {
			res.Rows = res.Rows[:q.Limit]
		}
	}
}

// rowHeap keeps the worst of the current top-k at the top.
type rowHeap struct {
	rows []rel.Row
	less func(a, b rel.Row) bool
}

func (h *rowHeap) Len() int           { return len(h.rows) }
func (h *rowHeap) Less(i, j int) bool { return h.less(h.rows[j], h.rows[i]) }
func (h *rowHeap) Swap(i, j int)      { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *rowHeap) Push(x any)         { h.rows = append(h.rows, x.(rel.Row)) }
func (h *rowHeap) Pop() any {
	x := h.rows[len(h.rows)-1]
	h.rows = h.rows[:len(h.rows)-1]
	return x
}
