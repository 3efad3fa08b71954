// Package vector implements Voodoo's data model: Structured Vectors.
//
// A Structured Vector is an ordered collection of fixed-size data items, all
// conforming to the same schema (paper §2.1). Items may nest other items;
// attributes are addressed with dotted Keypaths such as ".input.value".
// Internally a vector is stored columnar: one Column per leaf keypath.
//
// Columns come in two physical flavors:
//
//   - materialized: a typed Go slice (int64 or float64) plus an optional
//     validity mask distinguishing "empty" slots (the paper's ε padding);
//   - generated: a control vector described only by run metadata
//     (from, step, cap) with v[i] = (from + floor(i*step)) mod cap.
//
// Generated columns are never stored; they exist so that frontends can
// declaratively control the parallelism of fold operations (paper §2.2,
// "Controlled Folding") and so that backends can derive loop structure from
// the metadata instead of data (paper §3.1, "Maintaining Run Metadata").
//
// # Error handling
//
// Accessors in this package panic on misuse (wrong-kind access, unknown
// attribute, out-of-range slice): these are internal invariant violations
// — the callers are the interpreter and compiler, which type-check
// operands before touching columns — not conditions reachable from user
// input. Query execution layers (interp.Run, compile
// Plan.RunWith, exec workers) recover such panics into
// *exec.PanicError, so a latent bug here fails one query, not the
// process.
package vector

import (
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates the scalar types of the Voodoo data model. The algebra is
// deliberately minimal: 64-bit integers (also used for booleans, positions,
// dates and dictionary-encoded strings) and 64-bit floats.
type Kind uint8

const (
	// Int is a 64-bit signed integer attribute.
	Int Kind = iota
	// Float is a 64-bit IEEE-754 attribute.
	Float
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Float:
		return "float"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// RunMeta is the descriptive metadata the compiler keeps about generated
// (control) attributes: v[i] = (From + floor(i*Step)) mod Cap, matching the
// equation in paper §3.1, with the step held exactly as the rational
// StepNum/StepDen (float steps would violate the Divide law for factors
// like 3 through rounding). Cap == 0 means "no modulo"; a zero-valued
// StepDen reads as 1 so the zero RunMeta is the constant zero vector.
//
// The metadata is closed under the operations the paper uses to tune
// parallelism: dividing by a constant x multiplies StepDen by x; a modulo
// by x sets Cap to x.
type RunMeta struct {
	From    int64
	StepNum int64
	StepDen int64
	Cap     int64
}

// Step constructs the metadata for a Range with integral step.
func Step(from, step int64) RunMeta {
	return RunMeta{From: from, StepNum: step, StepDen: 1}
}

func (m RunMeta) den() int64 {
	if m.StepDen <= 0 {
		return 1
	}
	return m.StepDen
}

// Den returns the normalized step denominator (a zero StepDen reads as 1).
func (m RunMeta) Den() int64 { return m.den() }

// IntegralStep reports whether the step equals exactly the integer s.
func (m RunMeta) IntegralStep(s int64) bool {
	return m.StepNum == s*m.den()
}

// Value evaluates the generated attribute at position i.
func (m RunMeta) Value(i int) int64 {
	prod := int64(i) * m.StepNum
	q := prod / m.den()
	if prod < 0 && prod%m.den() != 0 {
		q-- // floor, not truncation, for negative steps
	}
	v := m.From + q
	if m.Cap > 0 {
		v %= m.Cap
		if v < 0 {
			v += m.Cap
		}
	}
	return v
}

// Divide returns the metadata of this control vector integer-divided by x.
// Dividing is how frontends create blocked partitions (runs of length x).
func (m RunMeta) Divide(x int64) (RunMeta, bool) {
	if x <= 0 || m.Cap > 0 {
		// A division after a modulo is no longer expressible as
		// (from, step, cap); callers must materialize. (Negative
		// divisors would flip floor direction.)
		return RunMeta{}, false
	}
	if m.From%x != 0 {
		// floor((from + floor(i*s))/x) folds into the step only when
		// from is a multiple of x; typical control vectors start at 0.
		return RunMeta{}, false
	}
	out := RunMeta{From: m.From / x, StepNum: m.StepNum, StepDen: m.den() * x}
	return out.reduced(), true
}

// Modulo returns the metadata of this control vector modulo x. Taking a
// modulo is how frontends create strided (SIMD-lane style) partitions.
func (m RunMeta) Modulo(x int64) (RunMeta, bool) {
	if x <= 0 {
		return RunMeta{}, false
	}
	if m.Cap > 0 && m.Cap%x != 0 {
		return RunMeta{}, false
	}
	return RunMeta{From: m.From % x, StepNum: m.StepNum, StepDen: m.den(), Cap: x}, true
}

// reduced cancels the gcd of the step fraction (overflow hygiene).
func (m RunMeta) reduced() RunMeta {
	a, b := m.StepNum, m.den()
	if a < 0 {
		a = -a
	}
	for b != 0 {
		a, b = b, a%b
	}
	if a > 1 {
		m.StepNum /= a
		m.StepDen = m.den() / a
	} else {
		m.StepDen = m.den()
	}
	return m
}

// IsConstant reports whether every position evaluates to the same value.
func (m RunMeta) IsConstant() bool {
	return m.StepNum == 0 || m.Cap == 1
}

// RunLength returns the length of the value runs this metadata describes and
// whether that length is uniform and statically known. A Range with step 1
// has runs of length 1; Divide by x yields runs of length x.
func (m RunMeta) RunLength() (int, bool) {
	if m.IsConstant() {
		return 0, false // a single unbounded run
	}
	num, den := m.StepNum, m.den()
	if num < 0 {
		return 0, false
	}
	if num >= den {
		// The value advances every step (by num/den ≥ 1): uniform runs
		// of one exactly when the increment is integral.
		if num%den == 0 {
			return 1, true
		}
		return 0, false
	}
	if den%num != 0 {
		return 0, false // non-uniform run lengths
	}
	return int(den / num), true
}

// Column is a single attribute of a structured vector.
type Column struct {
	kind Kind
	n    int

	// Exactly one of the following storage layouts is active.
	ints   []int64
	floats []float64
	gen    *RunMeta

	// valid marks non-empty slots; nil means "all slots filled". Empty
	// slots (the paper's ε) arise from scatters that skip positions and
	// from fold padding.
	valid []bool
}

// NewInt returns a materialized integer column backed by vals. The slice is
// adopted, not copied.
func NewInt(vals []int64) *Column {
	return &Column{kind: Int, n: len(vals), ints: vals}
}

// NewFloat returns a materialized float column backed by vals. The slice is
// adopted, not copied.
func NewFloat(vals []float64) *Column {
	return &Column{kind: Float, n: len(vals), floats: vals}
}

// NewIntWithValid returns a materialized integer column adopting both the
// value slice and the validity mask (nil valid = all slots filled). The
// mask uses the same representation SetEmpty maintains, so adopting an
// executor buffer's mask is equivalent to replaying its empty slots.
func NewIntWithValid(vals []int64, valid []bool) *Column {
	return &Column{kind: Int, n: len(vals), ints: vals, valid: valid}
}

// NewFloatWithValid is NewIntWithValid for float columns.
func NewFloatWithValid(vals []float64, valid []bool) *Column {
	return &Column{kind: Float, n: len(vals), floats: vals, valid: valid}
}

// NewGenerated returns a control-vector column of length n described by
// meta. Generated columns are integer-typed and occupy no storage.
func NewGenerated(n int, meta RunMeta) *Column {
	m := meta
	return &Column{kind: Int, n: n, gen: &m}
}

// NewConst returns a constant integer column of length n.
func NewConst(n int, v int64) *Column {
	return NewGenerated(n, RunMeta{From: v, StepDen: 1})
}

// NewEmptyInt returns an integer column of length n with every slot empty.
func NewEmptyInt(n int) *Column {
	c := &Column{kind: Int, n: n, ints: make([]int64, n), valid: make([]bool, n)}
	return c
}

// NewEmptyFloat returns a float column of length n with every slot empty.
func NewEmptyFloat(n int) *Column {
	return &Column{kind: Float, n: n, floats: make([]float64, n), valid: make([]bool, n)}
}

// Kind returns the scalar type of the column.
func (c *Column) Kind() Kind { return c.kind }

// Len returns the number of slots, including empty ones.
func (c *Column) Len() int { return c.n }

// Generated returns the run metadata and true if the column is a generated
// control vector.
func (c *Column) Generated() (RunMeta, bool) {
	if c.gen != nil {
		return *c.gen, true
	}
	return RunMeta{}, false
}

// Int returns the integer value at i. It panics if the column is
// float-typed; empty slots read as 0.
func (c *Column) Int(i int) int64 {
	if c.gen != nil {
		return c.gen.Value(i)
	}
	if c.kind != Int {
		panic("vector: Int() on float column")
	}
	return c.ints[i]
}

// Float returns the float value at i, converting integer (and generated)
// columns. Empty slots read as 0.
func (c *Column) Float(i int) float64 {
	if c.gen != nil {
		return float64(c.gen.Value(i))
	}
	if c.kind == Float {
		return c.floats[i]
	}
	return float64(c.ints[i])
}

// Valid reports whether slot i holds a value (true) or is empty ε (false).
func (c *Column) Valid(i int) bool {
	if c.valid == nil {
		return true
	}
	return c.valid[i]
}

// AllValid reports whether the column has no empty slots.
func (c *Column) AllValid() bool {
	if c.valid == nil {
		return true
	}
	for _, v := range c.valid {
		if !v {
			return false
		}
	}
	return true
}

// SetInt stores v at slot i and marks it filled.
func (c *Column) SetInt(i int, v int64) {
	if c.kind != Int || c.gen != nil {
		panic("vector: SetInt on non-materialized-int column")
	}
	c.ints[i] = v
	if c.valid != nil {
		c.valid[i] = true
	}
}

// SetFloat stores v at slot i and marks it filled.
func (c *Column) SetFloat(i int, v float64) {
	if c.kind != Float || c.gen != nil {
		panic("vector: SetFloat on non-materialized-float column")
	}
	c.floats[i] = v
	if c.valid != nil {
		c.valid[i] = true
	}
}

// SetEmpty marks slot i as empty (ε).
func (c *Column) SetEmpty(i int) {
	if c.gen != nil {
		panic("vector: SetEmpty on generated column")
	}
	if c.valid == nil {
		c.valid = make([]bool, c.n)
		for j := range c.valid {
			c.valid[j] = true
		}
	}
	c.valid[i] = false
}

// Ints returns the backing integer slice, materializing generated columns.
// The result must be treated as read-only for generated columns.
func (c *Column) Ints() []int64 {
	if c.gen != nil {
		out := make([]int64, c.n)
		for i := range out {
			out[i] = c.gen.Value(i)
		}
		return out
	}
	if c.kind != Int {
		panic("vector: Ints() on float column")
	}
	return c.ints
}

// Floats returns the backing float slice. It panics on integer columns.
func (c *Column) Floats() []float64 {
	if c.kind != Float {
		panic("vector: Floats() on int column")
	}
	return c.floats
}

// Materialize returns a materialized copy of the column (generated columns
// are expanded; materialized columns are deep-copied).
func (c *Column) Materialize() *Column {
	out := &Column{kind: c.kind, n: c.n}
	switch {
	case c.gen != nil:
		out.ints = make([]int64, c.n)
		for i := range out.ints {
			out.ints[i] = c.gen.Value(i)
		}
	case c.kind == Int:
		out.ints = append([]int64(nil), c.ints...)
	default:
		out.floats = append([]float64(nil), c.floats...)
	}
	if c.valid != nil {
		out.valid = append([]bool(nil), c.valid...)
	}
	return out
}

// Slice returns a materialized copy of rows [lo, hi).
func (c *Column) Slice(lo, hi int) *Column {
	if lo < 0 || hi > c.n || lo > hi {
		panic(fmt.Sprintf("vector: slice [%d,%d) out of range 0..%d", lo, hi, c.n))
	}
	out := &Column{kind: c.kind, n: hi - lo}
	switch {
	case c.gen != nil:
		out.ints = make([]int64, hi-lo)
		for i := range out.ints {
			out.ints[i] = c.gen.Value(lo + i)
		}
	case c.kind == Int:
		out.ints = append([]int64(nil), c.ints[lo:hi]...)
	default:
		out.floats = append([]float64(nil), c.floats[lo:hi]...)
	}
	if c.valid != nil {
		out.valid = append([]bool(nil), c.valid[lo:hi]...)
	}
	return out
}

// Equal reports whether the two columns have identical length, kind,
// validity and values.
func (c *Column) Equal(o *Column) bool {
	if c.n != o.n || c.kind != o.kind {
		return false
	}
	for i := 0; i < c.n; i++ {
		if c.Valid(i) != o.Valid(i) {
			return false
		}
		if !c.Valid(i) {
			continue
		}
		if c.kind == Int {
			if c.Int(i) != o.Int(i) {
				return false
			}
		} else if c.Float(i) != o.Float(i) {
			return false
		}
	}
	return true
}

// Vector is a structured vector: a fixed number of slots, each holding one
// structured item. Attributes are stored columnar and addressed by flattened
// dotted keypaths.
type Vector struct {
	n     int
	names []string // attribute keypaths in schema order
	cols  map[string]*Column
}

// New returns an empty structured vector with n slots and no attributes.
func New(n int) *Vector {
	return &Vector{n: n, cols: map[string]*Column{}}
}

// Len returns the number of slots.
func (v *Vector) Len() int { return v.n }

// Names returns the attribute keypaths in schema order. The returned slice
// must not be modified.
func (v *Vector) Names() []string { return v.names }

// Set adds or replaces the attribute at keypath kp. The column length must
// match the vector length.
func (v *Vector) Set(kp string, c *Column) *Vector {
	if c.Len() != v.n {
		panic(fmt.Sprintf("vector: attribute %q has length %d, vector has %d", kp, c.Len(), v.n))
	}
	if _, ok := v.cols[kp]; !ok {
		v.names = append(v.names, kp)
	}
	v.cols[kp] = c
	return v
}

// Col returns the column at exactly keypath kp, or nil.
func (v *Vector) Col(kp string) *Column { return v.cols[kp] }

// MustCol returns the column at keypath kp and panics with a descriptive
// error if it does not exist.
func (v *Vector) MustCol(kp string) *Column {
	c := v.cols[kp]
	if c == nil {
		panic(fmt.Sprintf("vector: no attribute %q (have %v)", kp, v.names))
	}
	return c
}

// Subtree returns the attributes designated by keypath kp: either the single
// column named kp, or — when kp names a nested struct — all columns under
// the prefix "kp.". Returned names are relative to kp ("" for the exact
// match). The boolean is false when kp matches nothing.
func (v *Vector) Subtree(kp string) (names []string, cols []*Column, ok bool) {
	if c := v.cols[kp]; c != nil {
		return []string{""}, []*Column{c}, true
	}
	prefix := kp + "."
	for _, n := range v.names {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n[len(prefix):])
			cols = append(cols, v.cols[n])
		}
	}
	return names, cols, len(names) > 0
}

// SingleCol returns the only attribute of a single-attribute vector. It is a
// convenience for operators that conceptually take "a vector of values".
func (v *Vector) SingleCol() *Column {
	if len(v.names) != 1 {
		panic(fmt.Sprintf("vector: expected a single attribute, have %v", v.names))
	}
	return v.cols[v.names[0]]
}

// FirstName returns the first attribute keypath of the vector.
func (v *Vector) FirstName() string {
	if len(v.names) == 0 {
		panic("vector: no attributes")
	}
	return v.names[0]
}

// Clone returns a shallow copy of the vector (columns shared).
func (v *Vector) Clone() *Vector {
	out := &Vector{n: v.n, names: append([]string(nil), v.names...), cols: map[string]*Column{}}
	for k, c := range v.cols {
		out.cols[k] = c
	}
	return out
}

// Equal reports whether two vectors have the same schema (ignoring attribute
// order) and identical data.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n || len(v.names) != len(o.names) {
		return false
	}
	a := append([]string(nil), v.names...)
	b := append([]string(nil), o.names...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	for _, name := range a {
		if !v.cols[name].Equal(o.cols[name]) {
			return false
		}
	}
	return true
}

// String renders a small human-readable table, useful in tests and examples.
func (v *Vector) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "vector[%d]{", v.n)
	for i, name := range v.names {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("." + name)
	}
	sb.WriteString("}\n")
	limit := v.n
	const maxRows = 16
	if limit > maxRows {
		limit = maxRows
	}
	for i := 0; i < limit; i++ {
		for j, name := range v.names {
			if j > 0 {
				sb.WriteString("\t")
			}
			c := v.cols[name]
			switch {
			case !c.Valid(i):
				sb.WriteString("ε")
			case c.Kind() == Int:
				fmt.Fprintf(&sb, "%d", c.Int(i))
			default:
				fmt.Fprintf(&sb, "%g", c.Float(i))
			}
		}
		sb.WriteString("\n")
	}
	if limit < v.n {
		fmt.Fprintf(&sb, "... (%d more)\n", v.n-limit)
	}
	return sb.String()
}
