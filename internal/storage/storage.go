// Package storage is the reproduction's stand-in for MonetDB's storage
// layer (paper §4, "Loading"): a column-oriented catalog with
// dictionary-encoded strings, per-column min/max metadata, and a binary
// on-disk format. The Voodoo engine loads columns straight out of the
// catalog, and the relational frontend exploits the metadata — exactly as
// the paper "aggressively exploits available metadata (min, max,
// FK-constraints)".
//
// NULL values follow MonetDB's scheme of reserved values: a column may
// declare a sentinel that reads as NULL (TPC-H does not need it, but the
// scheme is available).
package storage

import (
	"bufio"
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"voodoo/internal/telemetry"
	"voodoo/internal/vector"
)

// ColumnDef describes one column of a table.
type ColumnDef struct {
	Name string
	Kind vector.Kind
	// Dict holds the sorted dictionary for string columns (the column
	// data is the code sequence). Nil for plain numeric columns.
	Dict []string
	// HasNull marks the MonetDB-style reserved NULL value.
	HasNull bool
	Null    int64
}

// Stats is per-column metadata the frontend exploits for identity hashing
// and table sizing.
type Stats struct {
	MinI, MaxI int64
}

// Table is a named collection of equal-length columns.
type Table struct {
	Name string
	N    int

	defs  []ColumnDef
	cols  map[string]*vector.Column
	stats map[string]Stats
}

// NewTable creates an empty table.
func NewTable(name string) *Table {
	return &Table{Name: name, cols: map[string]*vector.Column{}, stats: map[string]Stats{}}
}

// Defs returns the column definitions in schema order.
func (t *Table) Defs() []ColumnDef { return t.defs }

// Col returns the named column, or nil.
func (t *Table) Col(name string) *vector.Column { return t.cols[name] }

// Def returns the definition of the named column.
func (t *Table) Def(name string) (ColumnDef, bool) {
	for _, d := range t.defs {
		if d.Name == name {
			return d, true
		}
	}
	return ColumnDef{}, false
}

// Stats returns the min/max metadata of the named column.
func (t *Table) Stats(name string) (Stats, bool) {
	s, ok := t.stats[name]
	return s, ok
}

// AddInt adds an integer column, computing its metadata. The slice is
// adopted.
func (t *Table) AddInt(name string, vals []int64) *Table {
	t.setLen(len(vals), name)
	st := Stats{}
	for i, v := range vals {
		if i == 0 || v < st.MinI {
			st.MinI = v
		}
		if i == 0 || v > st.MaxI {
			st.MaxI = v
		}
	}
	t.defs = append(t.defs, ColumnDef{Name: name, Kind: vector.Int})
	t.cols[name] = vector.NewInt(vals)
	t.stats[name] = st
	return t
}

// AddFloat adds a float column. A float column has no integer domain: its
// metadata reads [0, 0].
func (t *Table) AddFloat(name string, vals []float64) *Table {
	t.setLen(len(vals), name)
	t.defs = append(t.defs, ColumnDef{Name: name, Kind: vector.Float})
	t.cols[name] = vector.NewFloat(vals)
	t.stats[name] = Stats{}
	return t
}

// AddString adds a string column with dictionary encoding: the dictionary
// is sorted so code order equals lexicographic order and range predicates
// can compare codes directly.
func (t *Table) AddString(name string, vals []string) *Table {
	t.setLen(len(vals), name)
	uniq := map[string]bool{}
	for _, v := range vals {
		uniq[v] = true
	}
	dict := make([]string, 0, len(uniq))
	for v := range uniq {
		dict = append(dict, v)
	}
	sort.Strings(dict)
	code := make(map[string]int64, len(dict))
	for i, v := range dict {
		code[v] = int64(i)
	}
	codes := make([]int64, len(vals))
	for i, v := range vals {
		codes[i] = code[v]
	}
	t.defs = append(t.defs, ColumnDef{Name: name, Kind: vector.Int, Dict: dict})
	t.cols[name] = vector.NewInt(codes)
	t.stats[name] = Stats{MinI: 0, MaxI: int64(len(dict) - 1)}
	return t
}

// Code returns the dictionary code for value in the named string column;
// ok is false when the value does not occur (callers typically then use a
// code outside the domain, preserving predicate semantics).
func (t *Table) Code(col, value string) (int64, bool) {
	d, ok := t.Def(col)
	if !ok || d.Dict == nil {
		return 0, false
	}
	i := sort.SearchStrings(d.Dict, value)
	if i < len(d.Dict) && d.Dict[i] == value {
		return int64(i), true
	}
	return int64(i), false
}

// Decode maps a dictionary code back to its string.
func (t *Table) Decode(col string, code int64) string {
	d, ok := t.Def(col)
	if !ok || d.Dict == nil || code < 0 || code >= int64(len(d.Dict)) {
		return ""
	}
	return d.Dict[code]
}

func (t *Table) setLen(n int, col string) {
	if len(t.defs) == 0 {
		t.N = n
		return
	}
	if n != t.N {
		// Invariant violation: the Add* builder API is only called with
		// equal-length columns by construction (generators, tests, and
		// LoadTable, which reads every column at the header's row count).
		// A mismatch is a programming error, not an input error.
		panic(fmt.Sprintf("storage: column %q has %d rows, table %q has %d", col, n, t.Name, t.N))
	}
}

// Vector assembles the table as a structured vector (one attribute per
// column, shared storage).
func (t *Table) Vector() *vector.Vector {
	v := vector.New(t.N)
	for _, d := range t.defs {
		v.Set(d.Name, t.cols[d.Name])
	}
	return v
}

// Catalog is a set of tables that also implements the Voodoo backends'
// Storage interface.
type Catalog struct {
	tables map[string]*Table
	extra  map[string]*vector.Vector // vectors persisted by programs
	// quarantined names tables whose files failed integrity checks at
	// load time: the table is absent from tables, but the catalog
	// remembers why so the frontends can fail such queries fast with the
	// typed corruption error instead of a generic "no table".
	quarantined map[string]*CorruptError

	// memo holds data derived from the tables (prepared plans, which
	// capture column slices), so it lives and dies with them: replacing a
	// table, Quarantine and PersistVector drop it, and gen tells a build
	// that raced such a drop not to store. memoLRU orders the entries,
	// most recently used first.
	memoMu  sync.Mutex
	memo    map[any]*list.Element // of *derived
	memoLRU list.List
	gen     uint64
}

// derived is one memo entry.
type derived struct {
	key, v any
}

// maxDerived bounds the memo's entry count; an insert beyond it evicts the
// least recently used entry.
const maxDerived = 256

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: map[string]*Table{}, extra: map[string]*vector.Vector{}}
}

// Quarantine records that the named table's file failed integrity
// verification and is unavailable. Quarantined tables are invisible to
// Table but reported by Quarantined and QuarantineErr.
func (c *Catalog) Quarantine(name string, err *CorruptError) *Catalog {
	if c.quarantined == nil {
		c.quarantined = map[string]*CorruptError{}
	}
	c.quarantined[name] = err
	c.dropDerived()
	return c
}

// QuarantineErr returns the corruption error that quarantined the named
// table, or nil when the table is healthy (or simply unknown).
func (c *Catalog) QuarantineErr(name string) *CorruptError { return c.quarantined[name] }

// Quarantined returns the quarantined table names in sorted order.
func (c *Catalog) Quarantined() []string {
	var names []string
	for n := range c.quarantined {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Add registers a table. Replacing a table drops what the catalog derived
// from its contents (Derived); a new name keeps it, since nothing derived
// can have read a table that was not there — unless the name has a dot and
// may shadow a "table.col" path LoadVector resolved through another table.
func (c *Catalog) Add(t *Table) *Catalog {
	if _, replaced := c.tables[t.Name]; replaced || strings.Contains(t.Name, ".") {
		c.dropDerived()
	}
	c.tables[t.Name] = t
	return c
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table { return c.tables[name] }

// Lookup returns the named table, or an error saying why there is none,
// wrapping the *CorruptError of a quarantined table.
func (c *Catalog) Lookup(name string) (*Table, error) {
	if t := c.tables[name]; t != nil {
		return t, nil
	}
	if qe := c.quarantined[name]; qe != nil {
		return nil, fmt.Errorf("table %q is quarantined: %w", name, qe)
	}
	return nil, fmt.Errorf("no table %q", name)
}

// Tables returns the table names in sorted order.
func (c *Catalog) Tables() []string {
	var names []string
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LoadVector implements the backend Storage interface: "table" loads all
// columns, "table.col" a single one.
func (c *Catalog) LoadVector(name string) (*vector.Vector, error) {
	if v, ok := c.extra[name]; ok {
		return v, nil
	}
	if t, ok := c.tables[name]; ok {
		return t.Vector(), nil
	}
	for tn, t := range c.tables {
		prefix := tn + "."
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			col := t.Col(name[len(prefix):])
			if col != nil {
				return vector.New(t.N).Set(name[len(prefix):], col), nil
			}
		}
	}
	return nil, fmt.Errorf("storage: no vector %q", name)
}

// PersistVector implements the backend Storage interface.
func (c *Catalog) PersistVector(name string, v *vector.Vector) error {
	c.extra[name] = v
	c.dropDerived()
	return nil
}

// Derived returns the value the catalog memoizes under key, calling build
// on a miss; hit reports whether it came from the memo. build runs without
// the lock, so racing misses may build twice. What it returns is stored
// unless it failed or the catalog changed while it ran: a value derived
// from replaced tables is never served. The memo keeps the maxDerived most
// recently used entries; evicted reports that this call's insert pushed
// the least recently used one out.
func (c *Catalog) Derived(key any, build func() (any, error)) (v any, hit, evicted bool, err error) {
	c.memoMu.Lock()
	el, hit := c.memo[key]
	if hit {
		c.memoLRU.MoveToFront(el)
		v = el.Value.(*derived).v
	}
	gen := c.gen
	c.memoMu.Unlock()
	if hit {
		return v, true, false, nil
	}
	if v, err = build(); err != nil {
		return nil, false, false, err
	}
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	switch el, stored := c.memo[key]; {
	case c.gen != gen:
	case stored: // a racing miss stored it first
		el.Value.(*derived).v = v
		c.memoLRU.MoveToFront(el)
	default:
		if c.memo == nil {
			c.memo = map[any]*list.Element{}
		}
		c.memo[key] = c.memoLRU.PushFront(&derived{key, v})
		if evicted = c.memoLRU.Len() > maxDerived; evicted {
			delete(c.memo, c.memoLRU.Remove(c.memoLRU.Back()).(*derived).key)
		}
	}
	return v, false, evicted, nil
}

// dropDerived forgets everything derived from the catalog's old contents.
func (c *Catalog) dropDerived() {
	c.memoMu.Lock()
	c.memo = nil
	c.memoLRU.Init()
	c.gen++
	c.memoMu.Unlock()
}

// ---- Binary persistence -------------------------------------------------

// The on-disk format is versioned through the magic string. VOODOO02
// appends a CRC32C (Castagnoli) checksum after every column's payload
// (name, kind, dictionary and data), so bit rot and truncation are
// detected at load time instead of surfacing as wrong query answers.
// VOODOO01 files (no checksums) are no longer readable; regenerate them
// with tpchgen.
const (
	magic   = "VOODOO02"
	magicV1 = "VOODOO01"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a table file whose content failed validation:
// truncation, an unsupported format version, an implausible header, or a
// checksum mismatch. Path is always set; Column and Offset narrow the
// damage down when the failure is inside a column payload.
type CorruptError struct {
	Path   string
	Column string // the column being read when corruption was found ("" = header)
	Offset int64  // byte offset of the corrupt region's start
	Reason string
	Err    error // underlying I/O error, when one triggered the failure
}

func (e *CorruptError) Error() string {
	msg := fmt.Sprintf("storage: corrupt table file %s", e.Path)
	if e.Column != "" {
		msg += fmt.Sprintf(", column %q", e.Column)
	}
	msg += fmt.Sprintf(" at offset %d: %s", e.Offset, e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Save writes the catalog's tables under dir, one file per table.
func (c *Catalog) Save(dir string) error {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range c.Tables() {
		if err := c.tables[name].Save(filepath.Join(dir, name+".vdb")); err != nil {
			return fmt.Errorf("storage: saving %s: %w", name, err)
		}
	}
	if lg := telemetry.Default(); lg.Enabled(context.Background(), slog.LevelInfo) {
		lg.LogAttrs(context.Background(), slog.LevelInfo, "storage: catalog saved",
			slog.String("dir", dir),
			slog.Int("tables", len(c.Tables())),
			slog.Duration("wall", time.Since(start)))
	}
	return nil
}

// Load reads every *.vdb table under dir, failing on the first corrupt
// file. One-shot tools want this strict behavior; a daemon that should
// keep serving the healthy remainder uses LoadDegraded instead.
func Load(dir string) (*Catalog, error) {
	c, err := LoadDegraded(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range c.Quarantined() {
		return nil, c.QuarantineErr(name)
	}
	return c, nil
}

// LoadDegraded reads every *.vdb table under dir, quarantining (instead
// of failing on) tables whose files are corrupt or truncated. The error
// is non-nil only for environmental failures (unreadable directory,
// permission errors); integrity failures land in Catalog.Quarantined so
// a daemon can start in degraded mode and keep serving healthy tables.
func LoadDegraded(dir string) (*Catalog, error) {
	start := time.Now()
	lg := telemetry.Default()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	c := NewCatalog()
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".vdb" {
			continue
		}
		t, err := LoadTable(filepath.Join(dir, e.Name()))
		if err != nil {
			var ce *CorruptError
			if errors.As(err, &ce) {
				// The table name inside the file may be unreadable; fall
				// back to the file's base name.
				name := strings.TrimSuffix(e.Name(), ".vdb")
				c.Quarantine(name, ce)
				if lg.Enabled(context.Background(), slog.LevelWarn) {
					lg.LogAttrs(context.Background(), slog.LevelWarn,
						"storage: table quarantined",
						slog.String("table", name), slog.String("error", ce.Error()))
				}
				continue
			}
			return nil, fmt.Errorf("storage: loading %s: %w", e.Name(), err)
		}
		c.Add(t)
	}
	if lg.Enabled(context.Background(), slog.LevelInfo) {
		lg.LogAttrs(context.Background(), slog.LevelInfo, "storage: catalog loaded",
			slog.String("dir", dir),
			slog.Int("tables", len(c.Tables())),
			slog.Int("quarantined", len(c.Quarantined())),
			slog.Duration("wall", time.Since(start)))
	}
	return c, nil
}

// Save writes the table in the binary column format.
func (t *Table) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.WriteString(magic); err != nil {
		return err
	}
	if err := writeString(w, t.Name); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(t.N)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(len(t.defs))); err != nil {
		return err
	}
	for _, d := range t.defs {
		// The column payload streams through the CRC as it is written;
		// the sum lands right after the payload so readers can verify
		// column-by-column without a second pass.
		h := crc32.New(castagnoli)
		cw := io.MultiWriter(w, h)
		if err := writeString(cw, d.Name); err != nil {
			return err
		}
		if err := binary.Write(cw, binary.LittleEndian, uint8(d.Kind)); err != nil {
			return err
		}
		if err := binary.Write(cw, binary.LittleEndian, int64(len(d.Dict))); err != nil {
			return err
		}
		for _, s := range d.Dict {
			if err := writeString(cw, s); err != nil {
				return err
			}
		}
		col := t.cols[d.Name]
		if d.Kind == vector.Int {
			if err := binary.Write(cw, binary.LittleEndian, col.Ints()); err != nil {
				return err
			}
		} else {
			if err := binary.Write(cw, binary.LittleEndian, col.Floats()); err != nil {
				return err
			}
		}
		if err := binary.Write(w, binary.LittleEndian, h.Sum32()); err != nil {
			return err
		}
	}
	return w.Flush()
}

// countingReader tracks how many bytes have been consumed, so corruption
// reports can name the offset of the damage.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// LoadTable reads a table from the binary column format, verifying the
// format version and every column's CRC32C checksum. Malformed content —
// truncation, bad magic, an unsupported version, implausible headers, or
// a checksum mismatch — is reported as a *CorruptError naming the file,
// column and offset; no partially-read table ever escapes.
func LoadTable(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := &countingReader{r: bufio.NewReaderSize(f, 1<<20)}
	corrupt := func(column string, offset int64, reason string, cause error) error {
		if cause == io.EOF || cause == io.ErrUnexpectedEOF {
			reason, cause = "truncated: "+reason, nil
		}
		return &CorruptError{Path: path, Column: column, Offset: offset, Reason: reason, Err: cause}
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(cr, head); err != nil {
		return nil, corrupt("", 0, "reading magic", err)
	}
	switch string(head) {
	case magic:
	case magicV1:
		return nil, corrupt("", 0, fmt.Sprintf("unsupported format version %q (current is %q; regenerate with tpchgen)", magicV1, magic), nil)
	default:
		return nil, corrupt("", 0, fmt.Sprintf("bad magic %q (not a voodoo table file)", head), nil)
	}
	name, err := readString(cr)
	if err != nil {
		return nil, corrupt("", cr.n, "reading table name", err)
	}
	var n, ncols int64
	if err := binary.Read(cr, binary.LittleEndian, &n); err != nil {
		return nil, corrupt("", cr.n, "reading row count", err)
	}
	if err := binary.Read(cr, binary.LittleEndian, &ncols); err != nil {
		return nil, corrupt("", cr.n, "reading column count", err)
	}
	// A corrupt or hostile header must not drive allocation: every row
	// costs at least 8 bytes per column in the file, so bound the claimed
	// shape by the actual file size before allocating anything.
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if n < 0 || ncols <= 0 || ncols > 1<<16 || n > fi.Size()/8+1 {
		return nil, corrupt("", 0, fmt.Sprintf("implausible table shape: %d rows x %d columns in a %d-byte file", n, ncols, fi.Size()), nil)
	}
	t := NewTable(name)
	for i := int64(0); i < ncols; i++ {
		colStart := cr.n
		h := crc32.New(castagnoli)
		tr := io.TeeReader(cr, h)
		cname, err := readString(tr)
		if err != nil {
			return nil, corrupt("", cr.n, fmt.Sprintf("reading name of column %d", i), err)
		}
		var kind uint8
		if err := binary.Read(tr, binary.LittleEndian, &kind); err != nil {
			return nil, corrupt(cname, cr.n, "reading column kind", err)
		}
		if k := vector.Kind(kind); k != vector.Int && k != vector.Float {
			return nil, corrupt(cname, colStart, fmt.Sprintf("unknown column kind %d", kind), nil)
		}
		var dictLen int64
		if err := binary.Read(tr, binary.LittleEndian, &dictLen); err != nil {
			return nil, corrupt(cname, cr.n, "reading dictionary length", err)
		}
		if dictLen < 0 || dictLen > fi.Size() {
			return nil, corrupt(cname, colStart, fmt.Sprintf("implausible dictionary length %d", dictLen), nil)
		}
		dict := make([]string, dictLen)
		for j := range dict {
			if dict[j], err = readString(tr); err != nil {
				return nil, corrupt(cname, cr.n, fmt.Sprintf("reading dictionary entry %d", j), err)
			}
		}
		var ints []int64
		var floats []float64
		if vector.Kind(kind) == vector.Int {
			ints = make([]int64, n)
			err = binary.Read(tr, binary.LittleEndian, ints)
		} else {
			floats = make([]float64, n)
			err = binary.Read(tr, binary.LittleEndian, floats)
		}
		if err != nil {
			return nil, corrupt(cname, cr.n, "reading column data", err)
		}
		var want uint32
		if err := binary.Read(cr, binary.LittleEndian, &want); err != nil {
			return nil, corrupt(cname, cr.n, "reading column checksum", err)
		}
		if got := h.Sum32(); got != want {
			return nil, corrupt(cname, colStart, fmt.Sprintf("checksum mismatch: file says %08x, payload hashes to %08x", want, got), nil)
		}
		if ints != nil {
			t.AddInt(cname, ints)
		} else {
			t.AddFloat(cname, floats)
		}
		if dictLen > 0 {
			t.defs[len(t.defs)-1].Dict = dict
		}
	}
	return t, nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, int32(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n int32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n < 0 || n > 1<<20 {
		return "", fmt.Errorf("bad string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// osWriteFile is a tiny indirection for tests.
func osWriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
