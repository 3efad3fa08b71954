package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"voodoo/internal/baseline/hyper"
	"voodoo/internal/rel"
	"voodoo/internal/sql"
	"voodoo/internal/storage"
	"voodoo/internal/tpch"
)

// floatTol is the relative tolerance of the reference comparison, per
// aggregate value. The engines sum floats in different orders (HyPer-style
// tuple at a time, Voodoo in per-work-item partials), so sums agree to
// rounding, not to the bit; 1e-6 is orders above that noise and orders
// below any wrong answer. Repeats of one statement on one engine must
// agree exactly (see gate.check).
const floatTol = 1e-6

// refRows is a result in comparable form: one map per row, dictionary
// columns as their integer codes.
type refRows []map[string]float64

// reference computes a statement's answer on an engine that is not the
// one under test: the HyPer-style baseline, falling back to the reference
// interpreter for plans the baseline rejects.
func reference(cat *storage.Catalog, r request) (refRows, error) {
	run := func(e rel.Runner) (*rel.Result, error) {
		if r.num > 0 {
			qf, err := tpch.Query(r.num)
			if err != nil {
				return nil, err
			}
			res, _, err := qf(e)
			return res, err
		}
		stmt, err := sql.Parse(r.sql)
		if err != nil {
			return nil, err
		}
		q, err := sql.Plan(stmt, cat)
		if err != nil {
			return nil, err
		}
		res, _, err := e.Run(q)
		return res, err
	}
	res, err := run(&hyper.Engine{Cat: cat})
	if err != nil {
		if res, err = run(&rel.Engine{Cat: cat, Backend: rel.Interpreted}); err != nil {
			return nil, fmt.Errorf("reference for %s: %w", r.key, err)
		}
	}
	return resultRows(res), nil
}

// resultRows keeps the visible columns only: engines differ in the hidden
// helper aggregates (an AVG's sum and count) they leave in a row.
func resultRows(res *rel.Result) refRows {
	out := make(refRows, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = make(map[string]float64, len(res.Cols))
		for _, c := range res.Cols {
			out[i][c] = row[c]
		}
	}
	return out
}

// servedRows parses the rows of a /query response body. Dictionary
// columns arrive as strings; they are mapped back to codes through the
// catalog so they compare with the reference.
func servedRows(cat *storage.Catalog, body []byte) (refRows, error) {
	var resp struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	out := make(refRows, len(resp.Rows))
	for i, row := range resp.Rows {
		out[i] = make(map[string]float64, len(row))
		for col, v := range row {
			switch x := v.(type) {
			case float64:
				out[i][col] = x
			case string:
				code, ok := dictCode(cat, col, x)
				if !ok {
					return nil, fmt.Errorf("column %q: no dictionary holds %q", col, x)
				}
				out[i][col] = float64(code)
			default:
				return nil, fmt.Errorf("column %q: unexpected JSON value %v", col, v)
			}
		}
	}
	return out, nil
}

func dictCode(cat *storage.Catalog, col, s string) (int64, bool) {
	for _, name := range cat.Tables() {
		if code, ok := cat.Table(name).Code(col, s); ok {
			return code, true
		}
	}
	return 0, false
}

func closeEnough(a, b float64) bool {
	return a == b || math.Abs(a-b) <= floatTol*math.Max(math.Abs(a), math.Abs(b))
}

// sameRows reports whether got and want hold the same rows as multisets,
// every value within floatTol.
func sameRows(got, want refRows) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, reference has %d", len(got), len(want))
	}
	used := make([]bool, len(got))
next:
	for _, w := range want {
		for i, g := range got {
			if used[i] || len(g) != len(w) {
				continue
			}
			match := true
			for col, wv := range w {
				if gv, ok := g[col]; !ok || !closeEnough(gv, wv) {
					match = false
					break
				}
			}
			if match {
				used[i] = true
				continue next
			}
		}
		return fmt.Errorf("reference row %v has no match", w)
	}
	return nil
}

// gate is the correctness gate of one run: the first answer to a statement
// is compared with the reference, every repeat byte for byte with the
// first. Safe for concurrent clients.
type gate struct {
	cat *storage.Catalog

	mu    sync.Mutex
	refs  map[string]refRows // statement key → reference
	first map[string]uint64  // statement key → digest of the first answer
	// pending holds the single answers of fresh texts until verifyFresh.
	pending []pendingCheck
	errs    []string
	// attempted counts every gated request, failed those that errored,
	// were refused, or answered wrongly.
	attempted, failed int64
}

type pendingCheck struct {
	req  request
	body []byte
}

func newGate(cat *storage.Catalog) *gate {
	return &gate{cat: cat, refs: map[string]refRows{}, first: map[string]uint64{}}
}

// addReference computes and stores the reference of every request.
func (g *gate) addReference(reqs []request) error {
	for _, r := range reqs {
		if _, ok := g.refs[r.key]; ok {
			continue
		}
		ref, err := reference(g.cat, r)
		if err != nil {
			return err
		}
		g.refs[r.key] = ref
	}
	return nil
}

func (g *gate) fail(r request, err error) {
	g.failed++
	if len(g.errs) < 10 {
		g.errs = append(g.errs, fmt.Sprintf("%s: %v", r.key, err))
	}
}

// failRequest counts a request that did not produce an answer (non-200,
// shed, transport error).
func (g *gate) failRequest(r request, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	g.fail(r, err)
}

// check gates one answer. digest identifies the answer's exact bytes in
// its encoding (in-process rows or a response body), so first answers are
// kept per encoding; rows parses the answer, and is only called for the
// first one.
func (g *gate) check(encoding string, r request, digest uint64, rows func() (refRows, error)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	key := encoding + r.key
	if d, ok := g.first[key]; ok {
		if d != digest {
			g.fail(r, fmt.Errorf("repeat differs from the first answer"))
		}
		return
	}
	g.first[key] = digest
	got, err := rows()
	if err == nil {
		ref, ok := g.refs[r.key]
		if !ok {
			err = fmt.Errorf("no reference computed")
		} else {
			err = sameRows(got, ref)
		}
	}
	if err != nil {
		g.fail(r, err)
	}
}

// checkDirect gates an in-process result.
func (g *gate) checkDirect(r request, res *rel.Result) {
	g.check("rows:", r, digestResult(res), func() (refRows, error) { return resultRows(res), nil })
}

// checkServed gates a /query response body. The stats block (query id,
// timings) differs on every request, so the digest covers the bytes before
// it: the cols and rows exactly as encoded.
func (g *gate) checkServed(r request, body []byte) {
	answer := body
	if i := bytes.LastIndex(body, []byte(`"stats"`)); i >= 0 {
		answer = body[:i]
	}
	if r.fresh {
		// One answer only; its reference needs a parse, plan and baseline
		// run, which would perturb the measured window. Keep the bytes.
		g.mu.Lock()
		g.attempted++
		g.pending = append(g.pending, pendingCheck{r, append([]byte(nil), body...)})
		g.mu.Unlock()
		return
	}
	h := fnv.New64a()
	h.Write(answer)
	g.check("body:", r, h.Sum64(), func() (refRows, error) { return servedRows(g.cat, body) })
}

// verifyFresh checks the kept answers of never-repeated texts against the
// reference, after the measured window.
func (g *gate) verifyFresh() {
	g.mu.Lock()
	pending := g.pending
	g.pending = nil
	g.mu.Unlock()
	for _, p := range pending {
		got, err := servedRows(g.cat, p.body)
		if err == nil {
			var ref refRows
			if ref, err = reference(g.cat, p.req); err == nil {
				err = sameRows(got, ref)
			}
		}
		if err != nil {
			g.mu.Lock()
			g.fail(p.req, err)
			g.mu.Unlock()
		}
	}
}

// digestResult hashes a result's columns and row values bit for bit.
func digestResult(res *rel.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range res.Cols {
		h.Write([]byte(c))
	}
	for _, row := range res.Rows {
		for _, c := range res.Cols {
			bits := math.Float64bits(row[c])
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
