package compile

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"voodoo/internal/core"
	"voodoo/internal/storage"
)

var update = flag.Bool("update", false, "rewrite testdata/explain.golden from the current Explain output")

// q6Shaped builds TPC-H Q6's shape — filter, gather, multiply, sum — over
// 200 rows cut into four selection runs.
func q6Shaped() (*core.Program, *storage.Catalog) {
	quantity := make([]int64, 200)
	price := make([]float64, 200)
	discount := make([]float64, 200)
	for i := range quantity {
		quantity[i], price[i], discount[i] = int64(i%50), float64(100+i), float64(i%10)/100
	}
	cat := storage.NewCatalog().Add(storage.NewTable("lineitem").
		AddInt("quantity", quantity).AddFloat("price", price).AddFloat("discount", discount))
	b := core.NewBuilder()
	li := b.Load("lineitem")
	fold := b.Project("fold", b.Divide(b.Range(li), b.Constant(50)), "")
	pred := b.Arith(core.OpGreater, "p", b.Constant(24), "", li, "quantity")
	sel := b.FoldSelect(b.Zip("p", pred, "p", "fold", fold, "fold"), "fold", "p")
	hit := b.Gather(li, sel, "")
	b.FoldSum(b.Arith(core.OpMultiply, "rev", hit, "price", hit, "discount"), "", "rev")
	return b.Program(), cat
}

// TestExplainGolden pins the EXPLAIN text: the header and the `NN. <kind> …`
// step lines of a fused plan and of the same program bulk-compiled. The
// wall-clock benchmark counts steps by matching these lines, so their shape
// is an interface.
func TestExplainGolden(t *testing.T) {
	q6, q6cat := q6Shaped()

	var sb strings.Builder
	for _, tc := range []struct {
		name string
		prog *core.Program
		cat  *storage.Catalog
		opt  Options
	}{
		{"q6-shaped, compiled", q6, q6cat, Options{}},
		{"q6-shaped, bulk", q6, q6cat, Options{ForceBulk: true}},
	} {
		plan, err := Compile(tc.prog, tc.cat, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&sb, "== %s\n%s", tc.name, plan.Explain())
	}
	got := sb.String()

	// The pattern benchmark/layers.go counts steps by.
	if n := len(regexp.MustCompile(`(?m)^\s*\d+\. `).FindAllString(got, -1)); n == 0 {
		t.Error("no numbered step lines")
	}

	const golden = "testdata/explain.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Explain output differs from %s (rerun with -update to accept):\n%s", golden, got)
	}
}
