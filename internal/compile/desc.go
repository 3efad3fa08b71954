package compile

import (
	"voodoo/internal/vector"
)

// layoutKind describes how a compiled value's storage relates to the
// ε-padded layout the interpreter produces.
type layoutKind uint8

const (
	// layoutDense: index space equals the logical space.
	layoutDense layoutKind = iota
	// layoutFoldCompact: a fold output with empty slots suppressed — one
	// slot per run; run r sits at logical position r*runLen (paper
	// §3.1.2). logicalN and runLen describe the padded form.
	layoutFoldCompact
	// layoutGroupCompact: a grouped (data-controlled) fold output — one
	// slot per partition; the padded position of partition p is the
	// prefix sum of the partition counts.
	layoutGroupCompact
	// layoutScattered: a virtual scatter (paper §3.1.3) — attribute
	// expressions are over the *source* index space; the mapping to the
	// logical (scattered) space is σ(j) = (j mod runLen)*lanes + j/runLen.
	layoutScattered
)

// attr is one compiled attribute: a per-element expression plus an optional
// validity expression (nil = always valid).
type attr struct {
	name    string
	ex      expr
	validEx expr
}

func (a attr) kind() vector.Kind { return a.ex.kind() }

// desc describes the compiled form of one statement's value.
type desc struct {
	n     int // length of the value in its own (possibly compact) index space
	attrs []attr

	layout   layoutKind
	logicalN int // padded length (layouts other than dense)
	runLen   int // layoutFoldCompact
	lanes    int // layoutScattered: partition count k
	// grp names the grouped fold whose results a layoutGroupCompact
	// value holds.
	grp      *group
	partAttr string // layoutScattered: name of the partition attribute

	// sel carries an unmaterialized FoldSelect; filt an unmaterialized
	// gather through one. part carries Partition provenance for virtual
	// scatter; gpend a virtual scatter over a data-controlled partition
	// awaiting a grouped-fold consumer.
	sel   *selInfo
	filt  *filtInfo
	part  *partInfo
	gpend *groupPending

	// plainCache memoizes plainify so that several consumers of one
	// pending pipeline share a single spill.
	plainCache *desc
}

// Logical length as the interpreter would report it.
func (d *desc) logical() int {
	if d.layout == layoutDense {
		return d.n
	}
	return d.logicalN
}

func (d *desc) attrIdx(name string) int {
	for i := range d.attrs {
		if d.attrs[i].name == name {
			return i
		}
	}
	return -1
}

// resolve returns the attributes designated by keypath kp ("" = the single
// attribute; a prefix selects a nested subtree). Names come back relative
// to kp ("" for an exact match).
func (d *desc) resolve(kp string) (names []string, idx []int, ok bool) {
	if kp == "" {
		if len(d.attrs) == 1 {
			return []string{""}, []int{0}, true
		}
		for i := range d.attrs {
			names = append(names, d.attrs[i].name)
			idx = append(idx, i)
		}
		return names, idx, len(idx) > 0
	}
	if i := d.attrIdx(kp); i >= 0 {
		return []string{""}, []int{i}, true
	}
	prefix := kp + "."
	for i := range d.attrs {
		if len(d.attrs[i].name) > len(prefix) && d.attrs[i].name[:len(prefix)] == prefix {
			names = append(names, d.attrs[i].name[len(prefix):])
			idx = append(idx, i)
		}
	}
	return names, idx, len(names) > 0
}

// single returns the attribute at kp when kp names exactly one.
func (d *desc) single(kp string) (attr, bool) {
	if kp == "" {
		if len(d.attrs) == 1 {
			return d.attrs[0], true
		}
		return attr{}, false
	}
	if i := d.attrIdx(kp); i >= 0 {
		return d.attrs[i], true
	}
	return attr{}, false
}

// isScalar reports whether d is a genuine one-slot (broadcastable) value.
func isScalar(d *desc) bool { return d.layout == layoutDense && d.n == 1 }

// plain reports whether the value is an ordinary expression-backed vector
// (no pending special form).
func (d *desc) plain() bool {
	return d.sel == nil && d.filt == nil && d.part == nil && d.gpend == nil &&
		d.layout != layoutScattered
}

// group is one grouped fold (groupedFold): its results share their compact
// slots, slot p holding the rows whose partition id is p.
type group struct {
	// counts holds the partitions' row counts, which place slot p in the
	// padded layout; -1 when the plan expands no value of the group, and
	// the fold neither counts nor stores them.
	counts int
	// gid holds the fold's maximum of the partition id itself, the group
	// id, p at slot p where valid; -1 when it folds none.
	gid  int
	stmt int // the virtual Scatter's SSA id, which recompiling counted names
}

// selInfo is an unmaterialized FoldSelect: a predicate over the source
// index space plus the run structure of its control vector.
type selInfo struct {
	pred    expr
	srcN    int
	ctrl    foldCtrl
	outName string
	stmt    int // SSA id of the FoldSelect, for fragment provenance
	// inPlace reads the filters through it at their source rows
	// (readInPlace) instead of spilling them (foldsThrough decides).
	inPlace bool
}

// filtInfo is an unmaterialized Gather through a FoldSelect: source
// attribute expressions over the selected position (the ePos leaf).
type filtInfo struct {
	sel   *selInfo
	attrs []attr // exprs over ePos
	stmt  int    // SSA id of the Gather, for fragment provenance
}

// partInfo is the provenance of a Partition statement, kept symbolic so a
// following Scatter can dissolve into index arithmetic (virtual scatter).
type partInfo struct {
	valEx  expr            // partition id per source element
	meta   *vector.RunMeta // non-nil when the ids are a generated control vector
	srcN   int
	k      int   // number of partitions (pivot count + 1)
	pivots *desc // the pivot list, which only a bulk sort converts
	stmt   int   // SSA id of the Partition, for step provenance

	// spill cache: set once the counting-sort positions materialize.
	spilled bool
	buf     int
}

// ePos is the "currently selected position" leaf used inside filtInfo
// expressions; the fold emitter binds it to the register holding the
// position produced by the select loop.
type ePos struct{}

func (ePos) kind() vector.Kind { return vector.Int }

var thePos = &ePos{}

// foldCtrl is the loop structure derived from a fold's control vector.
type foldCtrl struct {
	global  bool // one run covering the whole vector (fully sequential)
	runLen  int  // blocked runs of this length
	unknown bool // run structure not statically derivable: fall back to bulk
}

// numRuns returns the number of runs over n elements.
func (c foldCtrl) numRuns(n int) int {
	if c.global {
		return 1
	}
	if c.runLen <= 0 {
		return n
	}
	return (n + c.runLen - 1) / c.runLen
}
