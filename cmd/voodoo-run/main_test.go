package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	kernelFragRE  = regexp.MustCompile(`(?m)^fragment (\S+)`)
	explainFragRE = regexp.MustCompile(`(?m)^ *\d+\. fragment (\S+)`)
)

// TestEveryFlagOnEverySource builds the real binary and drives the three
// sources — a textual program, SQL text, a prebuilt TPC-H query — through
// each of the four engines: -engine must pick the code that runs
// (-explain-analyze shows it) and -show-kernel must list exactly the
// fragments of the plans -explain shows, which are the plans that execute.
// It is the regression test for a source dropping or reinterpreting a flag:
// SQL under -engine bulk once listed the fused kernel of a second, compiled
// plan, and -q once printed no kernel at all.
func TestEveryFlagOnEverySource(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "voodoo-run")
	if out, err := exec.Command("go", "build", "-o", bin, "voodoo/cmd/voodoo-run").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	prog := filepath.Join(dir, "map.voo")
	text := "input := Load(\"nation.n_nationkey\")\ntwo := Constant(2)\ndoubled := Multiply(input, two)\n"
	if err := os.WriteFile(prog, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, append([]string{"-sf", "0.001"}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("voodoo-run %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	sources := []struct {
		name string
		args []string
	}{
		{"prog", []string{"-prog", prog}},
		{"sql", []string{"SELECT SUM(l_extendedprice) AS rev FROM lineitem WHERE l_quantity < 24"}},
		{"q6", []string{"-q", "6"}},
	}
	engines := []struct {
		name          string
		want, wantNot []string // substrings of the -explain-analyze output
		fragments     bool     // whether the engine's plans have fragments
	}{
		{"compiled", []string{"compiled backend", " fragment ", "spec:batch"}, []string{" stmt ", " bulk ", "compiled-interp", "spec:interp"}, true},
		{"interp", []string{"interpreted backend", " stmt "}, []string{" fragment ", " bulk ", "spec:"}, false},
		{"bulk", []string{"bulk-compiled backend", " bulk "}, []string{" fragment ", " stmt ", "spec:"}, false},
	}
	for _, src := range sources {
		for _, eng := range engines {
			t.Run(src.name+"/"+eng.name, func(t *testing.T) {
				flags := func(extra ...string) []string {
					return append(append([]string{"-engine", eng.name}, extra...), src.args...)
				}
				out := run(t, flags("-explain-analyze")...)
				for _, w := range eng.want {
					if !strings.Contains(out, w) {
						t.Errorf("-explain-analyze lacks %q:\n%s", w, out)
					}
				}
				for _, w := range eng.wantNot {
					if strings.Contains(out, w) {
						t.Errorf("-explain-analyze has %q:\n%s", w, out)
					}
				}

				out = run(t, flags("-show-kernel", "-explain")...)
				listed, planned := fragNames(kernelFragRE, out), fragNames(explainFragRE, out)
				if !slices.Equal(listed, planned) {
					t.Errorf("-show-kernel lists fragments %v, -explain plans %v:\n%s", listed, planned, out)
				}
				if got := len(planned) > 0; got != eng.fragments {
					t.Errorf("plans with fragments = %v, want %v:\n%s", got, eng.fragments, out)
				}
			})
		}
	}

	// -explain prints Q20's one plan and executes nothing: no result, and
	// no trace although one is asked for.
	traceFile := filepath.Join(dir, "q20.json")
	out := run(t, "-explain", "-trace", traceFile, "-q", "20")
	if plans := strings.Count(out, "plan: "); plans != 1 || len(fragNames(explainFragRE, out)) == 0 {
		t.Errorf("-explain -q 20 printed %d plans, want one with fragments:\n%s", plans, out)
	}
	if _, err := os.Stat(traceFile); strings.Contains(out, "-- TPC-H Q20") || !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-explain -q 20 executed the query (trace file: %v):\n%s", err, out)
	}

	// -verify lists a plan's warnings: a running sum of one column over a
	// selection spills every column the selection gathers, and stores one
	// nothing reads. A TPC-H plan has none: Q4's lineitem filter, spilled
	// for the semi join it builds, leaves the columns only its predicate
	// reads behind.
	dead := filepath.Join(dir, "dead.voo")
	text = "nation := Load(\"nation\")\nfive := Constant(5)\nbig := Greater(nation.n_nationkey, five)\n" +
		"sel := FoldSelect(big)\nhit := Gather(nation, sel)\nrunning := FoldScan(hit, .n_regionkey)\n"
	if err := os.WriteFile(dead, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := run(t, "-verify", "-prog", dead); !regexp.MustCompile(`warn: VP008: .*filt\.n_name`).MatchString(out) {
		t.Errorf("-verify -prog %s lists no dead store of n_name:\n%s", dead, out)
	}
	if out := run(t, "-verify", "-q", "4"); strings.Contains(out, "warn:") {
		t.Errorf("-verify -q 4 lists a warning:\n%s", out)
	}

	// Conflicting or missing inputs and an unknown engine are usage errors,
	// not a silent preference for one of them.
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"prog+q", []string{"-prog", prog, "-q", "6"}, "want one query"},
		{"prog+sql", []string{"-prog", prog, "SELECT COUNT(*) AS n FROM nation"}, "want one query"},
		{"q+sql", []string{"-q", "6", "SELECT COUNT(*) AS n FROM nation"}, "want one query"},
		{"none", nil, "want one query"},
		{"engine", []string{"-engine", "fused", "-q", "6"}, "compiled, interp or bulk"},
		{"element-order engine", []string{"-engine", "compiled-interp", "-q", "6"}, "compiled, interp or bulk"},
	} {
		t.Run("usage/"+tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Fatalf("voodoo-run %v: err = %v, want exit status 2\n%s", tc.args, err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("voodoo-run %v: message lacks %q:\n%s", tc.args, tc.want, out)
			}
		})
	}
}

// fragNames returns the sorted fragment names re captures in out.
func fragNames(re *regexp.Regexp, out string) []string {
	var names []string
	for _, m := range re.FindAllStringSubmatch(out, -1) {
		names = append(names, m[1])
	}
	slices.Sort(names)
	return names
}
