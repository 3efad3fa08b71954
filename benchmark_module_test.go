package voodoo

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBenchmarkModuleVets type-checks the wall-clock benchmark against this
// tree, then runs its own checks: the spec BENCHMARK.json must print from
// (TestSpec) and one short timed run of every workload must answer right
// (TestTimedRun). benchmark/ is a module of its own (replace voodoo => ../),
// so the root `go build/vet/test ./...` skip it; without this test a change
// to an internal API it compiles against — rel.Engine's
// Run/Prepare/RunPrepared, serve.Config, compile.RunOpts — or to what a
// workload answers passes tier-1 and fails only when the benchmark is next
// run. TestLayerPass stays out: its timing ratios are too noisy for tier-1.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go vet and go test; skipped in -short mode")
	}
	for _, args := range [][]string{
		{"vet", "."},
		{"test", "-count=1", "-run", "^(TestSpec|TestTimedRun)$", "."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "benchmark"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("cd benchmark && go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
