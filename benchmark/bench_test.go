package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The smoke runs the real code at a small scale factor with sub-second
// windows: it checks the harness, not the numbers.
func smokeConfig(workload string) config {
	return config{workload: workload, seed: 7, seconds: 0.2, sf: 0.005, clients: 2}
}

func smokeRun(t *testing.T, workload string, trace int) (*report, *recorder) {
	t.Helper()
	cfg := smokeConfig(workload)
	rep := newReport(workload, fingerprint{})
	var rec *recorder
	if trace >= 1 {
		rec = newRecorder()
	}
	if err := run(cfg, trace, t.TempDir(), 1<<14, rep, rec); err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || len(rep.errs) > 0 {
		t.Fatalf("%s: correct=%v errors=%v", workload, rep.Correct, rep.errs)
	}
	return rep, rec
}

func byName(rep *report) map[string]metric {
	out := map[string]metric{}
	for _, m := range rep.Metrics {
		out[m.Name] = m
	}
	return out
}

// TestSpec pins BENCHMARK.json to the spec table and the contract's limits
// on names and counts.
func TestSpec(t *testing.T) {
	want, err := printSpec()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Error("BENCHMARK.json differs from the spec table; regenerate it with -print-spec")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("bad or repeated metric %q (unit %q)", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	if len(workloads) != 4 || len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d workloads, %d per-layer and %d end-to-end metrics", len(workloads), len(perLayer), len(endToEnd))
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
}

// TestTimedRun checks that every workload emits every end-to-end metric
// exactly once, non-zero, with no wrong answer.
func TestTimedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	for _, w := range workloads {
		rep, _ := smokeRun(t, w.Name, 0)
		if missing := rep.missing(endToEnd); len(missing) > 0 || len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: missing %v, %d metrics emitted", w.Name, missing, len(rep.Metrics))
		}
		for _, m := range rep.Metrics {
			if m.Value <= 0 || m.Unit == "" {
				t.Errorf("%s: %s = %v %q", w.Name, m.Name, m.Value, m.Unit)
			}
		}
	}
}

// exactCounts are the metrics the program counts rather than times: two
// runs on one seed must report them identically.
var exactCounts = []string{
	"exec.frags_interp", "exec.frags_batch", "exec.frags_fused",
	"exec.frags_interp.served", "exec.frags_batch.served", "exec.frags_fused.served",
	"compile.fragments_per_plan", "compile.steps_per_plan", "compile.pruned_steps",
	"serve.plan_cache_evictions", "serve.plan_cache_hit_ratio",
}

// coverageResidual is how far the probed layers of a traced Engine.Run
// (lower + compile + exec.run + assemble) may fall short of the enclosing
// call at the smoke's scale, where a query runs for a millisecond or two
// and scheduling noise is a visible share of it.
const coverageResidual = 0.25

// TestLayerPass checks that the layer pass emits every per-layer metric
// exactly once, that counts repeat exactly for a seed, and that span self
// times add up to their enclosing calls.
func TestLayerPass(t *testing.T) {
	rep, rec := smokeRun(t, wSQLShort, 1)
	if missing := rep.missing(perLayer); len(missing) > 0 || len(rep.Metrics) != len(perLayer) {
		t.Errorf("missing %v, %d metrics emitted, want %d", missing, len(rep.Metrics), len(perLayer))
	}
	got := byName(rep)
	if c := got["bench.layer_coverage"].Value; c < 1-coverageResidual || c > 1+coverageResidual {
		t.Errorf("probed layers cover %.2f of Engine.Run, want within %.2f of 1", c, coverageResidual)
	}

	// A span tree's self times sum to its root's duration, and the parts a
	// served request's stats block reports fit inside the client's round
	// trip.
	self := selfTimes(rec.spans)
	total := map[int]float64{}
	root := map[int]span{}
	for _, s := range rec.spans {
		top := s
		for top.Parent != 0 {
			top = rec.spans[top.Parent-1]
		}
		total[top.ID] += self[s.ID]
		root[top.ID] = top
	}
	overrun := 0
	for id, r := range root {
		if d := r.EndUS - r.StartUS; total[id] < d-1 || total[id] > d+1 {
			if r.Name != "http.request" {
				t.Errorf("span tree %d (%s): self times sum to %.1f us, root lasted %.1f us", id, r.Name, total[id], d)
			}
			overrun++
		}
	}
	if overrun > len(root)/100 {
		t.Errorf("%d of %d span trees have children outlasting the root", overrun, len(root))
	}

	if testing.Short() {
		return
	}
	again, _ := smokeRun(t, wSQLShort, 1)
	second := byName(again)
	for _, name := range exactCounts {
		if got[name].Value != second[name].Value {
			t.Errorf("%s: %v then %v on one seed", name, got[name].Value, second[name].Value)
		}
	}
}

func TestCompare(t *testing.T) {
	a, b := []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}
	for _, c := range []struct {
		a, b   []float64
		better string
		want   string
	}{
		{a, b, "lower", "worse"}, {a, b, "higher", "better"}, {a, a, "lower", "same"},
		{a, []float64{10.5}, "lower", "same"}, {[]float64{5, 10, 15}, b, "lower", "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("verdict(%v, %v, %s) = %s, want %s", c.a, c.b, c.better, got, c.want)
		}
	}
}

// TestCompareDirs checks that the comparer refuses a set it cannot judge:
// one that lacks an end-to-end metric or a workload the other has, or that
// holds a run which answered wrongly.
func TestCompareDirs(t *testing.T) {
	write := func(workload string, correct bool, failed int64, skip string) string {
		rep := newReport(workload, fingerprint{})
		for _, d := range endToEnd {
			if d.Name != skip {
				rep.emit(d.Name, 10)
			}
		}
		rep.Correct, rep.Attempted, rep.Failed = correct, 100, failed
		dir := t.TempDir()
		if err := rep.writeFile(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	good := write(wTPCHDirect, true, 0, "")
	for _, c := range []struct {
		name, b, want string
	}{
		{"equal sets", write(wTPCHDirect, true, 0, ""), ""},
		{"metric absent from B", write(wTPCHDirect, true, 0, "latency_mean_ms"), "missing"},
		{"workload absent from B", write(wSQLShort, true, 0, ""), "missing"},
		{"wrong answer in B", write(wTPCHDirect, false, 0, ""), "not correct"},
		{"failed request in B", write(wTPCHDirect, true, 3, ""), "not correct"},
	} {
		err := compareDirs(io.Discard, good, c.b)
		if (c.want == "") != (err == nil) || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	if _, err := loadResults(filepath.Join(good, "absent")); err == nil {
		t.Error("a directory that does not exist compared without error")
	}
}
