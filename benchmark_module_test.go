package voodoo

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets type-checks the wall-clock benchmark against this
// tree. benchmark/ is a module of its own (replace voodoo => ../), so the
// root `go build/vet/test ./...` skip it; without this test a change to an
// internal API it compiles against — rel.Engine's Run/Prepare/RunPrepared,
// serve.Config, compile.RunOpts — passes tier-1 and fails only when the
// benchmark is next run.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go vet; skipped in -short mode")
	}
	cmd := exec.Command("go", "vet", ".")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cd benchmark && go vet .: %v\n%s", err, out)
	}
}
