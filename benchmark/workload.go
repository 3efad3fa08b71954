package main

import (
	"fmt"
	"math/rand"

	"voodoo/internal/tpch"
)

// request is one operation a workload issues: a prebuilt TPC-H query or a
// SQL text. The seed reaches only this file and the data generator; the
// engine and server see generated inputs.
type request struct {
	// key identifies the statement for the correctness gate: responses
	// with one key must agree byte for byte.
	key string
	// class is the latency class (latency_geomean_ms is the geometric mean
	// of per-class steady latencies, see timedRun).
	class string
	num   int    // TPC-H query number; 0 for SQL
	sql   string // SQL text when num == 0
	// fresh marks a never-repeated text: its single response is checked
	// against the reference after the measured window.
	fresh bool
}

func tpchRequests() []request {
	var out []request
	for _, n := range tpch.QueryNumbers {
		out = append(out, request{key: qname(n), class: qname(n), num: n})
	}
	return out
}

// cycle returns reqs in order, over and over.
func cycle(reqs []request) func() request {
	i := -1
	return func() request { i++; return reqs[i%len(reqs)] }
}

// The four scan-heavy lineitem statements of sql-concurrent. The texts are
// fixed so every request is a plan-cache hit; the seed orders them.
var concurrentSQL = []struct{ name, sql string }{
	{"q6-filter-sum", "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"},
	{"q1-group-by", "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_price, AVG(l_discount) AS avg_disc, COUNT(*) AS n FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"},
	{"join-group-by", "SELECT o_orderpriority, COUNT(*) AS n, SUM(l_extendedprice) AS price FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE l_quantity < 10 GROUP BY o_orderpriority ORDER BY o_orderpriority"},
	{"in-list-count", "SELECT COUNT(*) AS n FROM lineitem WHERE l_shipmode IN ('AIR', 'RAIL') AND l_quantity < 30"},
}

func concurrentRequests() []request {
	var out []request
	for _, s := range concurrentSQL {
		out = append(out, request{key: s.sql, class: s.name, sql: s.sql})
	}
	return out
}

// shortTemplate is one statement shape of sql-short. k selects among a
// handful of result-changing literals; u is a literal that makes the text
// unique (an integer outside the column's domain, or the fractional digits
// of a float threshold), so fresh texts never repeat and never collide
// with the hot set.
type shortTemplate struct {
	name string
	// hot is the template's number of texts in the hot set; fresh texts are
	// drawn in the same proportions. The composition is fixed so that seeds
	// change literals, not the mix of statement shapes.
	hot  int
	text func(k int, u int64) string
}

// All tables here are small at the benchmark's scale factor (25 nations,
// 5 regions, 10000*SF suppliers), which keeps execution below the
// frontend's cost: exec is 13-48% of these requests. The customer and part
// aggregates the issue suggested execute in 0.6-0.9 ms here, 85% of their
// request, and at any weight pushed the workload's exec share past the 35%
// the design allows, so they are left out. The out-of-range lineitem predicates the issue
// suggested are not sub-millisecond (8-40 ms: zone maps prune spilled
// selections only, and SQL aggregates compile to fused filter-folds), so
// the out-of-range probe here is on supplier.
var shortTemplates = []shortTemplate{
	{"nation-count", 12, func(k int, u int64) string {
		return fmt.Sprintf("SELECT COUNT(*) AS n FROM nation WHERE n_nationkey < %d AND n_nationkey <> %d", 5+k%20, 1000+u)
	}},
	{"nation-group", 12, func(k int, u int64) string {
		return fmt.Sprintf("SELECT n_regionkey, COUNT(*) AS n, MAX(n_nationkey) AS hi FROM nation WHERE n_nationkey >= %d AND n_nationkey <> %d GROUP BY n_regionkey ORDER BY n_regionkey", k%12, 1000+u)
	}},
	{"region-minmax", 12, func(k int, u int64) string {
		return fmt.Sprintf("SELECT COUNT(*) AS n, MIN(r_regionkey) AS lo, MAX(r_regionkey) AS hi FROM region WHERE r_regionkey <= %d AND r_regionkey <> %d", 1+k%4, 1000+u)
	}},
	{"supplier-join-nation", 6, func(k int, u int64) string {
		return fmt.Sprintf("SELECT n_regionkey, COUNT(*) AS n, MAX(s_suppkey) AS hi FROM supplier JOIN nation ON s_nationkey = n_nationkey WHERE s_suppkey <= %d AND s_suppkey <> %d GROUP BY n_regionkey ORDER BY n_regionkey", 10+k%30, 100000000+u)
	}},
	{"supplier-out-of-range", 8, func(k int, u int64) string {
		return fmt.Sprintf("SELECT COUNT(*) AS n FROM supplier WHERE s_suppkey > %d", 100000000+u)
	}},
	{"supplier-sum", 8, func(k int, u int64) string {
		return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(s_acctbal) AS bal FROM supplier WHERE s_acctbal > %d.%06d", 500*(k%16), u)
	}},
	{"supplier-group", 6, func(k int, u int64) string {
		return fmt.Sprintf("SELECT s_nationkey, COUNT(*) AS n, AVG(s_acctbal) AS bal FROM supplier WHERE s_acctbal < %d.%06d GROUP BY s_nationkey ORDER BY s_nationkey", 2000+500*(k%14), u)
	}},
}

const (
	hotShare = 0.8
	// freshBase separates the uniqueness literals of fresh texts from the
	// hot set's, which are drawn below it.
	freshBase = 500000
)

// shortStream generates the sql-short request stream: hotShare of the
// requests drawn uniformly from a seeded hot set of 64 texts, the rest
// fresh texts that never repeat.
type shortStream struct {
	rng   *rand.Rand
	hot   []request
	fresh int64
	pick  []int // template index, once per hot text of the template
}

func newShortStream(seed int64) *shortStream {
	s := &shortStream{rng: rand.New(rand.NewSource(seed))}
	seen := map[string]bool{}
	for i, t := range shortTemplates {
		for n := 0; n < t.hot; {
			text := t.text(s.rng.Intn(1<<20), s.rng.Int63n(freshBase))
			if !seen[text] {
				seen[text] = true
				s.hot = append(s.hot, request{key: text, class: t.name + ".hit", sql: text})
				s.pick = append(s.pick, i)
				n++
			}
		}
	}
	return s
}

func (s *shortStream) next() request {
	if s.rng.Float64() < hotShare {
		return s.hot[s.rng.Intn(len(s.hot))]
	}
	s.fresh++
	t := shortTemplates[s.pick[s.rng.Intn(len(s.pick))]]
	text := t.text(s.rng.Intn(1<<20), freshBase+s.fresh%freshBase)
	return request{key: text, class: t.name + ".miss", sql: text, fresh: true}
}

// roundRobin cycles through a seeded shuffle of reqs, reshuffling every
// cycle, so classes stay balanced whatever the run length.
type roundRobin struct {
	rng  *rand.Rand
	reqs []request
	i    int
}

func newRoundRobin(seed int64, reqs []request) *roundRobin {
	return &roundRobin{rng: rand.New(rand.NewSource(seed)), reqs: append([]request(nil), reqs...)}
}

func (r *roundRobin) next() request {
	if r.i == 0 {
		r.rng.Shuffle(len(r.reqs), func(a, b int) { r.reqs[a], r.reqs[b] = r.reqs[b], r.reqs[a] })
	}
	q := r.reqs[r.i]
	r.i = (r.i + 1) % len(r.reqs)
	return q
}
