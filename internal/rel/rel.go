// Package rel is the relational frontend (paper §4): it lowers relational
// query plans to Voodoo programs the way the paper's MonetDB integration
// does — identity hashing on open tables sized from min/max metadata for
// joins and group-bys, selection via controlled fold-selects, and no
// order-by/limit inside the algebra (the paper omits those clauses in
// Voodoo; this frontend applies them to the tiny result table afterwards).
package rel

import (
	"fmt"
	"strings"
)

// Expr is a scalar expression over the columns of a relation.
type Expr interface{ isExpr() }

// Col references an input column.
type Col struct{ Name string }

// IntLit is an integer (or dictionary code / date) literal.
type IntLit struct{ V int64 }

// FloatLit is a float literal.
type FloatLit struct{ V float64 }

// BinOp enumerates scalar operators.
type BinOp uint8

const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Mod
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
	And
	Or
)

// Bin applies a binary operator.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Not negates a boolean expression.
type Not struct{ E Expr }

// InList tests membership in a small literal set.
type InList struct {
	E  Expr
	Vs []int64
}

// Between tests lo <= e <= hi.
type Between struct {
	E      Expr
	Lo, Hi Expr
}

// Agg is the one value of a keyless aggregate of one column (a total, a
// maximum), folded once and broadcast to every row of the relation the
// expression is evaluated over; ε when the aggregate's input is empty. G is
// held by reference, which lowering analyses once; it nests no Agg of itself.
type Agg struct{ G *GroupAgg }

func (Col) isExpr()      {}
func (IntLit) isExpr()   {}
func (FloatLit) isExpr() {}
func (Bin) isExpr()      {}
func (Not) isExpr()      {}
func (InList) isExpr()   {}
func (Between) isExpr()  {}
func (Agg) isExpr()      {}

// C, I, F and B are concise constructors for hand-written plans.
func C(name string) Expr { return Col{Name: name} }
func I(v int64) Expr     { return IntLit{V: v} }
func F(v float64) Expr   { return FloatLit{V: v} }
func B(op BinOp, l, r Expr) Expr {
	return Bin{Op: op, L: l, R: r}
}

// Node is a relational plan operator.
type Node interface{ isNode() }

// Scan reads the listed columns of a base table.
type Scan struct {
	Table string
	Cols  []string
}

// Filter keeps rows satisfying Pred.
type Filter struct {
	In   Node
	Pred Expr
}

// Map appends computed columns (existing columns stay available).
type Map struct {
	In   Node
	Outs []NamedExpr
}

// NamedExpr is one computed column.
type NamedExpr struct {
	Name string
	E    Expr
}

// IndexJoin is the paper's metadata join: the build side scatters into an
// open table addressed by key-min (identity hashing), the probe side
// gathers. Build keys must be unique (primary keys). When the build side is
// filtered, unmatched probe rows are filtered out (inner-join semantics).
type IndexJoin struct {
	Probe    Node
	ProbeKey string
	Build    Node
	BuildKey string
	// Cols are the build-side columns carried into the output (the key
	// itself need not be listed).
	Cols []string
	// Semi keeps only the probe columns (existence test).
	Semi bool
}

// GroupAgg groups by Keys (base columns with known domains) and computes
// Aggs. Empty Keys means a single global group. Domains optionally
// overrides the key domains (required when a key is a computed column with
// no base-table metadata). It is a relation like any other, at the root
// too: one row per non-empty group, the keys and the aggregates its
// columns, an empty group ε — so it may be a join's build side (its keys
// are unique by construction) or a Filter's input.
type GroupAgg struct {
	In      Node
	Keys    []string
	Aggs    []AggSpec
	Domains []Domain
}

// Domain is an inclusive integer value range.
type Domain struct{ Min, Max int64 }

// AggFunc enumerates aggregate functions.
type AggFunc uint8

const (
	Sum AggFunc = iota
	Count
	Avg
	Min
	Max
)

// AggSpec is one aggregate column. A nil E with Count counts rows.
type AggSpec struct {
	Func AggFunc
	E    Expr
	As   string
}

func (Scan) isNode()      {}
func (Filter) isNode()    {}
func (Map) isNode()       {}
func (IndexJoin) isNode() {}
func (GroupAgg) isNode()  {}

// Query is a complete statement: a plan plus the post-algebra steps the
// paper keeps outside Voodoo. The root is a GroupAgg, or a Filter over one
// (an aggregate predicate, SQL's HAVING).
type Query struct {
	Root Node
	// Name labels the query in execution traces.
	Name string
	// OrderBy sorts the result rows (less function); Limit truncates.
	OrderBy func(a, b Row) bool
	Limit   int
}

// Row is one result row, keyed by output column name.
type Row map[string]float64

// Result is a query result table.
type Result struct {
	Cols []string
	Rows []Row

	decoders map[string]decoder
}

// String renders the result table, dictionary-encoded key columns decoded
// back to their strings, a space after every cell however wide.
func (r *Result) String() string {
	var sb strings.Builder
	for _, c := range r.Cols {
		fmt.Fprintf(&sb, "%-19s ", c)
	}
	sb.WriteString("\n")
	for _, row := range r.Rows {
		for _, c := range r.Cols {
			if d, ok := r.decoders[c]; ok {
				fmt.Fprintf(&sb, "%-19s ", d(row[c]))
			} else {
				fmt.Fprintf(&sb, "%-19.4f ", row[c])
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
