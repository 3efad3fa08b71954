package rel_test

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/exec"
	"voodoo/internal/rel"
	"voodoo/internal/storage"
	"voodoo/internal/tpch"
	"voodoo/internal/vector"
)

func tpchCatalog() *storage.Catalog { return tpch.Generate(tpch.Config{SF: 0.002, Seed: 42}) }

// recorder runs queries on its engine and keeps their roots.
type recorder struct {
	*rel.Engine
	roots []rel.Node
}

func (r *recorder) Run(q rel.Query) (*rel.Result, *exec.Stats, error) {
	r.roots = append(r.roots, q.Root)
	return r.Engine.Run(q)
}

// sameBits reports whether two results hold the same columns and rows,
// every value bit for bit.
func sameBits(a, b *rel.Result) bool {
	if !slices.Equal(a.Cols, b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i, ra := range a.Rows {
		rb := b.Rows[i]
		if len(ra) != len(rb) {
			return false
		}
		for k, v := range ra {
			w, ok := rb[k]
			if !ok || math.Float64bits(v) != math.Float64bits(w) {
				return false
			}
		}
	}
	return true
}

func runQuery(t *testing.T, num int, r rel.Runner) *rel.Result {
	t.Helper()
	qf, err := tpch.Query(num)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := qf(r)
	if err != nil {
		t.Fatalf("q%d: %v", num, err)
	}
	return res
}

// Every TPC-H query answers bit for bit alike when it compiles (a miss) and
// when it reuses its plan (a hit), on the same engine and on per-request
// copies of it, at one and two workers, pooled and unpooled. The repeat
// compiles nothing: every query is one plan, so the hit counter advances
// by exactly one and the miss counter stays.
func TestMemoTPCHHitsAnswerAlike(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, pooled := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/pooled=%v", workers, pooled), func(t *testing.T) {
				e := &rel.Engine{Cat: tpchCatalog(), Opt: compile.Options{Workers: workers}}
				if pooled {
					e.Pool = vector.NewPool(0)
				}
				for _, num := range tpch.QueryNumbers {
					misses := rel.MemoMisses.Value()
					miss := runQuery(t, num, e)
					if rel.MemoMisses.Value() == misses {
						t.Fatalf("q%d: the first run on a fresh catalog did not compile", num)
					}

					hits, misses := rel.MemoHits.Value(), rel.MemoMisses.Value()
					hit := runQuery(t, num, e)
					if got := rel.MemoHits.Value() - hits; got != 1 || rel.MemoMisses.Value() != misses {
						t.Fatalf("q%d repeat: %d hits, %d misses; want one hit", num, got, rel.MemoMisses.Value()-misses)
					}
					perRequest := *e
					fresh := runQuery(t, num, &perRequest)
					if !sameBits(miss, hit) || !sameBits(miss, fresh) {
						t.Fatalf("q%d: answers differ\nmiss:\n%s\nhit:\n%s\nper-request copy:\n%s", num, miss, hit, fresh)
					}
				}
			})
		}
	}
}

// Engine copies on eight goroutines share one catalog and its memo, cold
// at the start, and answer as a private catalog does. Run under -race.
func TestMemoConcurrentEngines(t *testing.T) {
	nums := []int{1, 7, 11}
	want := map[int]*rel.Result{}
	ref := &rel.Engine{Cat: tpchCatalog()}
	for _, num := range nums {
		want[num] = runQuery(t, num, ref)
	}

	shared := &rel.Engine{Cat: tpchCatalog(), Pool: vector.NewPool(0)}
	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				num := nums[(g+i)%len(nums)]
				qf, _ := tpch.Query(num)
				e := *shared
				res, _, err := qf(&e)
				if err == nil && !sameBits(res, want[num]) {
					err = fmt.Errorf("q%d on goroutine %d: answer differs from a private catalog's", num, g)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkMemoKey encodes the roots of the 14 TPC-H queries, the work
// every Run adds before its memo lookup.
func BenchmarkMemoKey(b *testing.B) {
	rec := &recorder{Engine: &rel.Engine{Cat: tpchCatalog()}}
	for _, num := range tpch.QueryNumbers {
		qf, _ := tpch.Query(num)
		if _, _, err := qf(rec); err != nil {
			b.Fatal(err)
		}
	}
	var buf []byte
	b.ResetTimer()
	for range b.N {
		for _, r := range rec.roots {
			buf, _ = rel.AppendNode(buf[:0], r)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rec.roots)), "ns/root")
}
