package tpch

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"voodoo/internal/rel"
	"voodoo/internal/vector"
)

// TestOneRunPerQuery: every TPC-H query is one plan, a rel.Query nested
// aggregates and all, and no query writes the catalog it reads: the table
// list is the generator's after all 14 planned and ran.
func TestOneRunPerQuery(t *testing.T) {
	cat := Generate(Config{SF: 0.002, Seed: 42})
	tables := cat.Tables()
	e := &rel.Engine{Cat: cat}
	for _, num := range QueryNumbers {
		q, err := Plan(num, cat)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Run(q); err != nil {
			t.Fatalf("q%d: %v", num, err)
		}
	}
	if got := cat.Tables(); !slices.Equal(got, tables) {
		t.Errorf("the queries changed the catalog's tables from %v to %v", tables, got)
	}
}

// TestNestedQueriesConcurrently runs Q11, Q15 and Q20, the queries that
// read an aggregate as a relation, on engine copies over one fresh catalog
// from eight goroutines, cold plan memo included, and again over seven more.
// Run under -race: no query writes the shared catalog, and every answer
// is bit for bit a serial run's.
func TestNestedQueriesConcurrently(t *testing.T) {
	nums := []int{11, 15, 20}
	answer := func(res *rel.Result) string { return fmt.Sprint(res.Cols, res.Rows) }
	want := map[int]string{}
	serial := &rel.Engine{Cat: Generate(Config{SF: 0.002, Seed: 42})}
	for _, num := range nums {
		qf, _ := Query(num)
		res, _, err := qf(serial)
		if err != nil {
			t.Fatalf("q%d: %v", num, err)
		}
		want[num] = answer(res)
	}

	for range 8 {
		shared := &rel.Engine{Cat: Generate(Config{SF: 0.002, Seed: 42}), Pool: vector.NewPool(0)}
		const goroutines, rounds = 8, 2
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range rounds {
					num := nums[(g+i)%len(nums)]
					qf, _ := Query(num)
					e := *shared
					res, _, err := qf(&e)
					if err == nil && answer(res) != want[num] {
						err = fmt.Errorf("q%d on goroutine %d: answer differs from a serial run's", num, g)
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
}
