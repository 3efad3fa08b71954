package vector

import (
	"sync"
	"sync/atomic"

	"voodoo/internal/metrics"
)

// Pool hit/miss visibility: steady-state serving should show hits
// dominating misses once the size classes are warm; recycled bytes is the
// allocation traffic the garbage collector never sees.
var (
	poolHits = metrics.NewCounter("voodoo_pool_hits_total",
		"Buffer requests satisfied from a vector.Pool free list.")
	poolMisses = metrics.NewCounter("voodoo_pool_misses_total",
		"Buffer requests that fell through a vector.Pool to the Go allocator.")
	poolRecycled = metrics.NewCounter("voodoo_pool_recycled_bytes_total",
		"Bytes returned to vector.Pool free lists by arena releases.")
)

// Size classes are powers of two from minClassElems elements up; requests
// above the largest class fall through to the Go allocator (they are rare
// and would pin too much memory in the free lists).
const (
	minClassElems = 64
	numClasses    = 21 // 64 .. 64<<20 (64Mi) elements
)

// sizeClass maps a requested element count to its size class and the
// rounded (power-of-two) capacity of that class. Class -1 means "not
// pooled": zero, negative, and beyond-largest-class counts.
func sizeClass(n int) (class, rounded int) {
	if n <= 0 {
		return -1, n
	}
	size := minClassElems
	for c := 0; c < numClasses; c++ {
		if n <= size {
			return c, size
		}
		size <<= 1
	}
	return -1, n
}

// Pool is a size-classed recycler for the backing slices behind
// materialized Columns and kernel buffers: []int64, []float64 and []bool
// validity masks. Slices are handed out through per-query Arenas and come
// back in bulk when the arena is released at end-of-run, so the steady
// state of a serving process recycles buffers instead of allocating.
//
// A Pool is safe for concurrent use by any number of arenas. Slices
// returned by a pool are zeroed, so pooled allocation is observationally
// identical to make().
type Pool struct {
	mu     sync.Mutex
	ints   [numClasses][][]int64
	floats [numClasses][][]float64
	bools  [numClasses][][]bool

	// retained is the byte footprint of the free lists; releases beyond
	// maxRetained are dropped for the garbage collector instead.
	retained    int64
	maxRetained int64

	hits, misses, recycled atomic.Int64
	// live counts arenas handed out by NewArena that have not been
	// released yet. A serving process that has drained all queries must
	// read zero here; anything else is a leak (a query path that dropped
	// its arena without Release), which the chaos harness gates on.
	live atomic.Int64
}

// DefaultMaxRetained bounds a pool's idle free-list footprint (1 GiB)
// when NewPool is given no explicit budget.
const DefaultMaxRetained = 1 << 30

// NewPool returns a pool that retains at most maxRetainedBytes across its
// free lists (0 = DefaultMaxRetained).
func NewPool(maxRetainedBytes int64) *Pool {
	if maxRetainedBytes <= 0 {
		maxRetainedBytes = DefaultMaxRetained
	}
	return &Pool{maxRetained: maxRetainedBytes}
}

// PoolStats is a point-in-time snapshot of a pool's traffic.
type PoolStats struct {
	Hits          int64 // requests served from a free list
	Misses        int64 // requests that hit the Go allocator
	RecycledBytes int64 // bytes accepted back by Release
	RetainedBytes int64 // current free-list footprint
	LiveArenas    int64 // arenas handed out and not yet released
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	retained := p.retained
	p.mu.Unlock()
	return PoolStats{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		RecycledBytes: p.recycled.Load(),
		RetainedBytes: retained,
		LiveArenas:    p.live.Load(),
	}
}

// NewArena returns a fresh arena drawing from the pool. A nil pool
// returns a nil arena, which is valid and allocates straight from the Go
// heap — callers thread *Arena unconditionally and pay nothing when
// pooling is off.
func (p *Pool) NewArena() *Arena {
	if p == nil {
		return nil
	}
	p.live.Add(1)
	return &Arena{pool: p}
}

func (p *Pool) getInts(n int) []int64 {
	c, rounded := sizeClass(n)
	if c < 0 {
		p.misses.Add(1)
		poolMisses.Inc()
		return make([]int64, n)
	}
	var s []int64
	p.mu.Lock()
	if l := p.ints[c]; len(l) > 0 {
		s, p.ints[c] = l[len(l)-1], l[:len(l)-1]
		p.retained -= int64(rounded) * 8
	}
	p.mu.Unlock()
	if s == nil {
		p.misses.Add(1)
		poolMisses.Inc()
		return make([]int64, rounded)[:n]
	}
	p.hits.Add(1)
	poolHits.Inc()
	clear(s)
	return s[:n]
}

func (p *Pool) getFloats(n int) []float64 {
	c, rounded := sizeClass(n)
	if c < 0 {
		p.misses.Add(1)
		poolMisses.Inc()
		return make([]float64, n)
	}
	var s []float64
	p.mu.Lock()
	if l := p.floats[c]; len(l) > 0 {
		s, p.floats[c] = l[len(l)-1], l[:len(l)-1]
		p.retained -= int64(rounded) * 8
	}
	p.mu.Unlock()
	if s == nil {
		p.misses.Add(1)
		poolMisses.Inc()
		return make([]float64, rounded)[:n]
	}
	p.hits.Add(1)
	poolHits.Inc()
	clear(s)
	return s[:n]
}

func (p *Pool) getBools(n int) []bool {
	c, rounded := sizeClass(n)
	if c < 0 {
		p.misses.Add(1)
		poolMisses.Inc()
		return make([]bool, n)
	}
	var s []bool
	p.mu.Lock()
	if l := p.bools[c]; len(l) > 0 {
		s, p.bools[c] = l[len(l)-1], l[:len(l)-1]
		p.retained -= int64(rounded)
	}
	p.mu.Unlock()
	if s == nil {
		p.misses.Add(1)
		poolMisses.Inc()
		return make([]bool, rounded)[:n]
	}
	p.hits.Add(1)
	poolHits.Inc()
	clear(s)
	return s[:n]
}

// Arena tracks the pooled slices of one query run. Exactly one goroutine
// may allocate from an arena (all plan-level allocation happens on the
// plan goroutine; kernel workers only write into already-allocated
// buffers), and Release must not be called before every consumer of the
// run's results is done with them. A nil *Arena — and the zero Arena,
// which has no pool — is valid and falls back to plain make(), so
// unpooled callers need no branches.
type Arena struct {
	pool   *Pool
	ints   [][]int64
	floats [][]float64
	bools  [][]bool
}

// Ints returns a zeroed []int64 of length n owned by the arena.
func (a *Arena) Ints(n int) []int64 {
	if a == nil || a.pool == nil {
		return make([]int64, n)
	}
	s := a.pool.getInts(n)
	a.ints = append(a.ints, s)
	return s
}

// Floats returns a zeroed []float64 of length n owned by the arena.
func (a *Arena) Floats(n int) []float64 {
	if a == nil || a.pool == nil {
		return make([]float64, n)
	}
	s := a.pool.getFloats(n)
	a.floats = append(a.floats, s)
	return s
}

// Bools returns a zeroed []bool of length n owned by the arena.
func (a *Arena) Bools(n int) []bool {
	if a == nil || a.pool == nil {
		return make([]bool, n)
	}
	s := a.pool.getBools(n)
	a.bools = append(a.bools, s)
	return s
}

// EmptyInt is NewEmptyInt drawing from the arena: an integer column of
// length n with every slot empty.
func (a *Arena) EmptyInt(n int) *Column {
	if a == nil {
		return NewEmptyInt(n)
	}
	return &Column{kind: Int, n: n, ints: a.Ints(n), valid: a.Bools(n)}
}

// EmptyFloat is NewEmptyFloat drawing from the arena.
func (a *Arena) EmptyFloat(n int) *Column {
	if a == nil {
		return NewEmptyFloat(n)
	}
	return &Column{kind: Float, n: n, floats: a.Floats(n), valid: a.Bools(n)}
}

// Materialize is Column.Materialize drawing from the arena: generated
// columns are expanded and materialized columns deep-copied into
// arena-owned storage.
func (a *Arena) Materialize(c *Column) *Column {
	if a == nil {
		return c.Materialize()
	}
	out := &Column{kind: c.kind, n: c.n}
	switch {
	case c.gen != nil:
		out.ints = a.Ints(c.n)
		for i := range out.ints {
			out.ints[i] = c.gen.Value(i)
		}
	case c.kind == Int:
		out.ints = a.Ints(c.n)
		copy(out.ints, c.ints)
	default:
		out.floats = a.Floats(c.n)
		copy(out.floats, c.floats)
	}
	if c.valid != nil {
		out.valid = a.Bools(c.n)
		copy(out.valid, c.valid)
	}
	return out
}

// Release returns every slice the arena handed out to the pool's free
// lists. After Release, any Column or Buffer backed by the arena is
// invalid: its storage will be zeroed and handed to another query.
// Release is idempotent and nil-safe.
func (a *Arena) Release() {
	if a == nil || a.pool == nil {
		return
	}
	p := a.pool
	var recycled int64
	p.mu.Lock()
	for _, s := range a.ints {
		s = s[:cap(s)]
		c, rounded := sizeClass(cap(s))
		if c < 0 || cap(s) != rounded {
			continue // not a pooled shape; let the GC have it
		}
		bytes := int64(rounded) * 8
		if p.retained+bytes > p.maxRetained {
			continue
		}
		if Poison {
			poisonInts(s)
		}
		p.ints[c] = append(p.ints[c], s)
		p.retained += bytes
		recycled += bytes
	}
	for _, s := range a.floats {
		s = s[:cap(s)]
		c, rounded := sizeClass(cap(s))
		if c < 0 || cap(s) != rounded {
			continue
		}
		bytes := int64(rounded) * 8
		if p.retained+bytes > p.maxRetained {
			continue
		}
		if Poison {
			poisonFloats(s)
		}
		p.floats[c] = append(p.floats[c], s)
		p.retained += bytes
		recycled += bytes
	}
	for _, s := range a.bools {
		s = s[:cap(s)]
		c, rounded := sizeClass(cap(s))
		if c < 0 || cap(s) != rounded {
			continue
		}
		bytes := int64(rounded)
		if p.retained+bytes > p.maxRetained {
			continue
		}
		if Poison {
			poisonBools(s)
		}
		p.bools[c] = append(p.bools[c], s)
		p.retained += bytes
		recycled += bytes
	}
	p.mu.Unlock()
	p.recycled.Add(recycled)
	poolRecycled.Add(recycled)
	p.live.Add(-1)
	a.ints, a.floats, a.bools = nil, nil, nil
	a.pool = nil
}

// UnpooledCopy deep-copies v into fresh heap-backed columns. Values that
// escape a pooled run — vectors persisted to storage — must be copied out
// of the arena before it is released.
func UnpooledCopy(v *Vector) *Vector {
	out := New(v.n)
	for _, name := range v.names {
		out.Set(name, v.cols[name].Materialize())
	}
	return out
}
