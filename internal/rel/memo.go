package rel

import (
	"encoding/binary"
	"math"

	"voodoo/internal/compile"
	"voodoo/internal/metrics"
	"voodoo/internal/verify"
)

// Plan reuse observability: every Run of a compiling backend either finds
// its prepared plan in the catalog's memo (hit) or lowers and compiles it
// (miss). Both series are pre-created so they exist at zero.
var (
	memoVec = metrics.NewCounterVec("voodoo_prepared_plans_total",
		"Engine.Run plan lookups: a prepared plan reused from the catalog's memo (hit) or lowered and compiled (miss).", "result")
	memoHitC  = memoVec.With("hit")
	memoMissC = memoVec.With("miss")
)

// memoKey names a prepared plan within one catalog's memo: everything
// Prepare's output depends on besides the catalog. Name, OrderBy and
// Limit are not in it — RunPrepared applies them, and Run takes them
// from the caller's query on every call.
type memoKey struct {
	backend Backend
	opt     compile.Options
	verify  bool   // compilation runs the IR verifier
	root    string // appendNode's encoding of the plan
}

// prepared is Prepare behind the catalog's memo: a repeat of a query on an
// unchanged catalog under the same backend settings reuses the plan the
// first run compiled. The interpreted backend compiles nothing and is not
// memoized; errors are never stored. A hit delivers the plan to PlanSink
// as a miss does, so observing a query never changes the plan that runs.
func (e *Engine) prepared(q Query) (*Prepared, error) {
	if e.Backend == Interpreted {
		return e.Prepare(q)
	}
	root, ok := appendNode(nil, q.Root, nil)
	if !ok {
		return e.Prepare(q)
	}
	key := memoKey{backend: e.Backend, opt: e.Opt, verify: verify.Enabled(), root: string(root)}
	v, hit, _, err := e.Cat.Derived(key, func() (any, error) { return e.Prepare(q) })
	if err != nil {
		return nil, err
	}
	pr := *v.(*Prepared)
	if hit {
		memoHitC.Inc()
		if e.PlanSink != nil {
			e.PlanSink(pr.plan)
		}
	} else {
		memoMissC.Inc()
	}
	pr.q = q
	return &pr, nil
}

// Type tags of the plan encoding: one per node and expression type, so
// two roots of different shape never encode alike.
const (
	tagScan byte = iota + 1
	tagFilter
	tagMap
	tagIndexJoin
	tagGroupAgg
	tagCol
	tagIntLit
	tagFloatLit
	tagBin
	tagNot
	tagInList
	tagBetween
	tagNilExpr
	tagAgg
)

// appendNode appends a canonical encoding of n to b: a type tag per node
// and expression, a length before every string and slice, integers as
// varints and floats as their exact bits, so equal encodings mean equal
// plans. ok is false for a type the encoding does not know (such a plan
// is not memoized). l, when not nil, is lowering's analysis: it encodes an
// input, and an aggregate expression's group, by its id (nested) and
// collects the columns expressions name. Without it a plan encodes whole.
func appendNode(b []byte, n Node, l *lowerer) (_ []byte, ok bool) {
	switch x := n.(type) {
	case Scan:
		return appendStrings(appendString(append(b, tagScan), x.Table), x.Cols), true
	case Filter:
		if b, ok = l.nested(append(b, tagFilter), x.In); !ok {
			return b, false
		}
		return appendExpr(b, x.Pred, l)
	case Map:
		if b, ok = l.nested(append(b, tagMap), x.In); !ok {
			return b, false
		}
		b = binary.AppendUvarint(b, uint64(len(x.Outs)))
		for _, o := range x.Outs {
			if b, ok = appendExpr(appendString(b, o.Name), o.E, l); !ok {
				return b, false
			}
		}
		return b, true
	case IndexJoin:
		if b, ok = l.nested(append(b, tagIndexJoin), x.Probe); !ok {
			return b, false
		}
		if b, ok = l.nested(appendString(b, x.ProbeKey), x.Build); !ok {
			return b, false
		}
		b = appendStrings(appendString(b, x.BuildKey), x.Cols)
		if x.Semi {
			return append(b, 1), true
		}
		return append(b, 0), true
	case GroupAgg:
		if b, ok = l.nested(append(b, tagGroupAgg), x.In); !ok {
			return b, false
		}
		b = binary.AppendUvarint(appendStrings(b, x.Keys), uint64(len(x.Aggs)))
		for _, a := range x.Aggs {
			if b, ok = appendExpr(append(appendString(b, a.As), byte(a.Func)), a.E, l); !ok {
				return b, false
			}
		}
		b = binary.AppendUvarint(b, uint64(len(x.Domains)))
		for _, d := range x.Domains {
			b = binary.AppendVarint(binary.AppendVarint(b, d.Min), d.Max)
		}
		return b, true
	}
	return b, false
}

// appendExpr appends the canonical encoding of e (see appendNode).
func appendExpr(b []byte, e Expr, l *lowerer) (_ []byte, ok bool) {
	switch x := e.(type) {
	case nil:
		return append(b, tagNilExpr), true
	case Col:
		if l != nil {
			l.cols = append(l.cols, x.Name)
		}
		return appendString(append(b, tagCol), x.Name), true
	case IntLit:
		return binary.AppendVarint(append(b, tagIntLit), x.V), true
	case FloatLit:
		return binary.AppendUvarint(append(b, tagFloatLit), math.Float64bits(x.V)), true
	case Bin:
		if b, ok = appendExpr(append(b, tagBin, byte(x.Op)), x.L, l); !ok {
			return b, false
		}
		return appendExpr(b, x.R, l)
	case Not:
		return appendExpr(append(b, tagNot), x.E, l)
	case InList:
		if b, ok = appendExpr(append(b, tagInList), x.E, l); !ok {
			return b, false
		}
		b = binary.AppendUvarint(b, uint64(len(x.Vs)))
		for _, v := range x.Vs {
			b = binary.AppendVarint(b, v)
		}
		return b, true
	case Between:
		if b, ok = appendExpr(append(b, tagBetween), x.E, l); !ok {
			return b, false
		}
		if b, ok = appendExpr(b, x.Lo, l); !ok {
			return b, false
		}
		return appendExpr(b, x.Hi, l)
	case Agg:
		return l.nested(append(b, tagAgg), x.G)
	}
	return b, false
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}
