package storage

import (
	"errors"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"testing"

	"voodoo/internal/vector"
)

func sample() *Table {
	t := NewTable("orders")
	t.AddInt("okey", []int64{10, 20, 30, 40})
	t.AddFloat("total", []float64{1.5, 2.5, 0.5, 9})
	t.AddString("status", []string{"O", "F", "O", "P"})
	return t
}

func TestStats(t *testing.T) {
	tb := sample()
	st, ok := tb.Stats("okey")
	if !ok || st.MinI != 10 || st.MaxI != 40 {
		t.Fatalf("okey stats = %+v, %v", st, ok)
	}
	if st, ok = tb.Stats("total"); !ok || st != (Stats{}) {
		t.Fatalf("total stats = %+v, %v; a float column reads [0, 0]", st, ok)
	}
}

func TestDictionaryEncoding(t *testing.T) {
	tb := sample()
	d, ok := tb.Def("status")
	if !ok || len(d.Dict) != 3 {
		t.Fatalf("dict = %v", d.Dict)
	}
	// Sorted dictionary: F < O < P.
	if d.Dict[0] != "F" || d.Dict[1] != "O" || d.Dict[2] != "P" {
		t.Fatalf("dict should be sorted: %v", d.Dict)
	}
	code, ok := tb.Code("status", "O")
	if !ok || code != 1 {
		t.Fatalf("Code(O) = %d, %v", code, ok)
	}
	if _, ok := tb.Code("status", "Z"); ok {
		t.Fatal("Code(Z) should not exist")
	}
	if got := tb.Decode("status", tb.Col("status").Int(3)); got != "P" {
		t.Fatalf("row 3 status = %q, want P", got)
	}
}

func TestCatalogLoadVector(t *testing.T) {
	c := NewCatalog().Add(sample())
	v, err := c.LoadVector("orders")
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 4 || v.Col("okey") == nil || v.Col("status") == nil {
		t.Fatalf("bad table vector: %v", v.Names())
	}
	single, err := c.LoadVector("orders.total")
	if err != nil {
		t.Fatal(err)
	}
	if single.Len() != 4 || single.Col("total").Float(3) != 9 {
		t.Fatalf("bad column vector")
	}
	if _, err := c.LoadVector("nope"); err == nil {
		t.Fatal("expected error for unknown vector")
	}
}

func TestCatalogPersistVector(t *testing.T) {
	c := NewCatalog()
	v := vector.New(2).Set("x", vector.NewInt([]int64{1, 2}))
	if err := c.PersistVector("tmp", v); err != nil {
		t.Fatal(err)
	}
	got, err := c.LoadVector("tmp")
	if err != nil || !got.Equal(v) {
		t.Fatalf("persisted vector round trip failed: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := NewCatalog().Add(sample())
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb := back.Table("orders")
	if tb == nil {
		t.Fatal("orders table missing after reload")
	}
	orig := sample()
	if !tb.Vector().Equal(orig.Vector()) {
		t.Fatal("data changed across save/load")
	}
	d, _ := tb.Def("status")
	if len(d.Dict) != 3 || d.Dict[2] != "P" {
		t.Fatalf("dictionary lost: %v", d.Dict)
	}
	st, ok := tb.Stats("okey")
	if !ok || st.MaxI != 40 {
		t.Fatalf("stats lost: %+v", st)
	}
}

func TestLoadTableBadMagic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.vdb")
	if err := writeFile(path, []byte("NOTMAGIC")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTable(path); err == nil {
		t.Fatal("expected bad magic error")
	}
}

func TestColumnLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb := NewTable("t")
	tb.AddInt("a", []int64{1, 2})
	tb.AddInt("b", []int64{1})
}

func writeFile(path string, data []byte) error {
	return osWriteFile(path, data)
}

// Derived memoizes what a build returns until the catalog's contents
// change; failures are never stored, and past its bound the memo evicts
// the least recently used entry.
func TestDerivedMemo(t *testing.T) {
	c := NewCatalog().Add(sample())
	builds := 0
	build := func() (any, error) { builds++; return builds, nil }
	lookup := func(key any) (v any, hit, evicted bool) {
		t.Helper()
		v, hit, evicted, err := c.Derived(key, build)
		if err != nil {
			t.Fatal(err)
		}
		return v, hit, evicted
	}
	if v, hit, _ := lookup("k"); hit || v != 1 {
		t.Fatalf("first lookup: %v hit=%v, want a build", v, hit)
	}
	if v, hit, _ := lookup("k"); !hit || v != 1 {
		t.Fatalf("repeat: %v hit=%v, want the stored value", v, hit)
	}

	fail := errors.New("no plan")
	if _, _, _, err := c.Derived("bad", func() (any, error) { return nil, fail }); err != fail {
		t.Fatalf("build error not returned: %v", err)
	}
	if _, hit, _ := lookup("bad"); hit {
		t.Fatal("a failed build was stored")
	}

	c.Add(NewTable("other"))
	if _, hit, _ := lookup("k"); !hit {
		t.Fatal("adding a new table dropped the memo")
	}
	for name, change := range map[string]func(){
		"replacing a table": func() { c.Add(sample()) },
		"dotted name":       func() { c.Add(NewTable("orders.x")) },
		"Quarantine":        func() { c.Quarantine("orders", &CorruptError{Path: "orders.vdb"}) },
		"PersistVector":     func() { _ = c.PersistVector("v", vector.New(1)) },
		"a build racing it": func() {
			_, _, _, _ = c.Derived("raced", func() (any, error) { c.Add(sample()); return 0, nil })
			if _, hit, _ := lookup("raced"); hit {
				t.Error("a value built across a change was stored")
			}
		},
	} {
		lookup("k")
		change()
		if _, hit, _ := lookup("k"); hit {
			t.Errorf("%s kept the memo", name)
		}
	}

	c = NewCatalog()
	for i := range maxDerived + 10 {
		lookup(i)
	}
	if _, hit, _ := lookup(maxDerived + 9); !hit {
		t.Fatal("the newest entry past the bound was not stored")
	}
	if _, hit, _ := lookup(0); hit {
		t.Fatalf("the memo kept more than %d entries", maxDerived)
	}

	// Eviction order: a hit refreshes an entry, so the insert past the
	// bound evicts the least recently used other one, and only that
	// insert reports it.
	c = NewCatalog()
	for i := range maxDerived {
		if _, _, evicted := lookup(i); evicted {
			t.Fatalf("insert %d of %d evicted", i, maxDerived)
		}
	}
	lookup(0)
	if _, _, evicted := lookup("new"); !evicted {
		t.Fatal("the insert past the bound did not report its eviction")
	}
	if _, hit, evicted := lookup(0); !hit || evicted {
		t.Fatal("the entry a hit refreshed was evicted")
	}
	if _, hit, evicted := lookup(1); hit || !evicted {
		t.Fatal("the least recently used entry was kept")
	}
	if len(c.memo) != maxDerived || c.memoLRU.Len() != maxDerived {
		t.Fatalf("memo holds %d entries in %d list elements, want %d", len(c.memo), c.memoLRU.Len(), maxDerived)
	}
}

// Engines and servers share one catalog's memo: concurrent hits, misses,
// evictions and drops keep the map and the LRU list in step, and every
// lookup returns what its key's build makes.
func TestDerivedConcurrent(t *testing.T) {
	c := NewCatalog().Add(sample())
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(g), 1))
			for n := range 2000 {
				if g == 0 && n%200 == 0 {
					c.Add(sample())
				}
				k := r.IntN(maxDerived + maxDerived/2)
				v, _, _, err := c.Derived(k, func() (any, error) { return -k, nil })
				if err != nil || v != -k {
					t.Errorf("Derived(%d) = %v, %v; want %d", k, v, err, -k)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(c.memo) != c.memoLRU.Len() || len(c.memo) > maxDerived {
		t.Fatalf("memo map holds %d entries, its list %d (bound %d)", len(c.memo), c.memoLRU.Len(), maxDerived)
	}
	for el := c.memoLRU.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*derived); c.memo[e.key] != el {
			t.Fatalf("list entry %v is not the map's", e.key)
		}
	}
}
