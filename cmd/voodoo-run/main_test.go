package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestProgHonoursRunOptions is the regression test for `-prog` dropping
// per-run options: it builds the real binary and runs a one-fragment map
// over the 25-row nation table, which takes the batch path and fits one
// default morsel. -no-specialize must move the fragment to the interpreter
// and say why, -morsel 7 must split it into four morsels, and -backend must
// pick the engine — the reference interpreter runs no fragment at all, the
// bulk compiler only bulk steps — exactly as they do on the SQL and -q
// paths.
func TestProgHonoursRunOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "voodoo-run")
	if out, err := exec.Command("go", "build", "-o", bin, "voodoo/cmd/voodoo-run").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	prog := filepath.Join(dir, "map.voo")
	src := "input := Load(\"nation.n_nationkey\")\ntwo := Constant(2)\ndoubled := Multiply(input, two)\n"
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	analyze := func(extra ...string) string {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-sf", "0.001", "-prog", prog, "-explain-analyze"}, extra...)...)
		// Two processors, so the fragment is not forced down the
		// single-worker path that ignores the morsel size.
		cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("voodoo-run %v: %v\n%s", extra, err, out)
		}
		return string(out)
	}

	if out := analyze(); !strings.Contains(out, "spec:batch") || strings.Contains(out, "morsels=") {
		t.Fatalf("default run should show one single-morsel spec:batch fragment:\n%s", out)
	}
	if out := analyze("-no-specialize"); !strings.Contains(out, "spec:interp(no-specialize)") {
		t.Errorf("-no-specialize ignored on the -prog path:\n%s", out)
	}
	if out := analyze("-morsel", "7"); !strings.Contains(out, "morsels=4") {
		t.Errorf("-morsel ignored on the -prog path:\n%s", out)
	}
	if out := analyze("-backend", "interp"); !strings.Contains(out, "interpreted backend") ||
		!strings.Contains(out, " stmt ") || strings.Contains(out, " fragment ") {
		t.Errorf("-backend interp ignored on the -prog path (want stmt steps, no fragment):\n%s", out)
	}
	if out := analyze("-backend", "bulk"); !strings.Contains(out, "bulk-compiled backend") ||
		!strings.Contains(out, " bulk ") || strings.Contains(out, " fragment ") {
		t.Errorf("-backend bulk ignored on the -prog path (want bulk steps, no fragment):\n%s", out)
	}
}
