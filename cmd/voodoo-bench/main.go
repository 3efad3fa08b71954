// Command voodoo-bench regenerates the paper's evaluation (§5): every
// figure of the microbenchmark study and the TPC-H comparisons, plus the
// design-choice ablations.
//
// Usage:
//
//	voodoo-bench [-n N] [-sf SF] [-seed S] [-o out.txt] [fig1|fig12|fig13|fig14|fig15|fig16|ablations|all]
//	voodoo-bench ci [-ci-out BENCH_ci.json] [-baseline BENCH_baseline.json] [-write-baseline]
//
// Times are simulated from the device cost models (see DESIGN.md §2);
// workloads really execute and results are verified en route.
//
// The ci subcommand runs the short smoke subset at a fixed small
// configuration, writes its medians to -ci-out, and exits non-zero if any
// median regressed more than 25% against the committed baseline. Wall-clock
// speed is not measured here: that is benchmark/ (see its README).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"voodoo/internal/bench"
	"voodoo/internal/diag"
	"voodoo/internal/metrics"
	"voodoo/internal/telemetry"
	"voodoo/internal/verify"
)

func main() {
	n := flag.Int("n", 1<<20, "microbenchmark element count")
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor")
	seed := flag.Int64("seed", 42, "data generator seed")
	out := flag.String("o", "", "also write the report to this file")
	ciOut := flag.String("ci-out", "BENCH_ci.json", "ci: write the smoke report here")
	baseline := flag.String("baseline", "BENCH_baseline.json", "ci: committed baseline to compare against")
	writeBaseline := flag.Bool("write-baseline", false, "ci: rewrite the baseline instead of comparing")
	diagAddr := flag.String("diag-addr", "", "serve /metrics, pprof and expvar on this address while the benchmarks run (e.g. localhost:6060)")
	logLevel := flag.String("log-level", "off", "structured-log threshold on stderr: debug, info, warn, error or off")
	doVerify := flag.Bool("verify", false, "statically verify programs and compiled plans before execution (voodoo_verify_failures_total counts rejections)")
	flag.Parse()

	if *doVerify {
		verify.SetEnabled(true)
	}
	if err := telemetry.InstallJSON(os.Stderr, *logLevel); err != nil {
		fatal(err)
	}
	if *diagAddr != "" {
		ds, err := diag.Serve(*diagAddr, metrics.Default, nil, nil)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "voodoo-bench: diagnostics on http://%s\n", ds.Addr)
	}

	cfg := bench.Config{N: *n, SF: *sf, Seed: *seed}
	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"all"}
	}
	if targets[0] == "ci" {
		// Re-parse so the ci flags may follow the subcommand
		// (flag.Parse stops at the first positional argument).
		if err := flag.CommandLine.Parse(targets[1:]); err != nil {
			fatal(err)
		}
		if err := runCI(*ciOut, *baseline, *writeBaseline); err != nil {
			fatal(err)
		}
		return
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(w, "voodoo-bench: N=%d SF=%g seed=%d\n\n", *n, *sf, *seed)
	for _, t := range targets {
		start := time.Now()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(w, t, cfg); err != nil {
			fatal(err)
		}
		runtime.ReadMemStats(&after)
		fmt.Fprintf(w, "[%s regenerated in %.1fs, %d allocs, %.1f MB allocated]\n\n",
			t, time.Since(start).Seconds(),
			after.Mallocs-before.Mallocs, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	}
}

func run(w io.Writer, target string, cfg bench.Config) error {
	all := target == "all"
	any := false
	if all || target == "fig1" {
		any = true
		fig, err := bench.Fig1(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, fig.Render())
	}
	if all || target == "fig12" {
		any = true
		tbl, err := bench.Fig12(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, tbl.Render())
	}
	if all || target == "fig13" {
		any = true
		tbl, err := bench.Fig13(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, tbl.Render())
	}
	if all || target == "fig14" {
		any = true
		nat, err := bench.Fig14Native(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, nat.Render())
		figs, err := bench.Fig14(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figs["fig14b"].Render())
		fmt.Fprintln(w, figs["fig14c"].Render())
	}
	if all || target == "fig15" {
		any = true
		nat, err := bench.Fig15Native(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, nat.Render())
		figs, err := bench.Fig15(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figs["fig15b"].Render())
		fmt.Fprintln(w, figs["fig15c"].Render())
	}
	if all || target == "fig16" {
		any = true
		nat, err := bench.Fig16Native(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, nat.Render())
		figs, err := bench.Fig16(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, figs["fig16b"].Render())
		fmt.Fprintln(w, figs["fig16c"].Render())
	}
	if all || target == "ablations" {
		any = true
		as, err := bench.Ablations(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.RenderAblations(as))
	}
	if !any {
		return fmt.Errorf("unknown target %q (want fig1, fig12, fig13, fig14, fig15, fig16, ablations or all)", target)
	}
	return nil
}

// runCI executes the bench smoke, persists the report, and gates on the
// committed baseline.
func runCI(outPath, basePath string, writeBaseline bool) error {
	start := time.Now()
	rep, err := bench.CISmoke()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if writeBaseline {
		fmt.Printf("ci: baseline rewritten to %s (%d benchmarks, %.1fs)\n",
			basePath, len(rep.Medians), time.Since(start).Seconds())
		return os.WriteFile(basePath, data, 0o644)
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	raw, err := os.ReadFile(basePath)
	if err != nil {
		return fmt.Errorf("no baseline (run `voodoo-bench ci -write-baseline` and commit %s): %w", basePath, err)
	}
	var base bench.CIReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", basePath, err)
	}
	violations := bench.CompareCI(rep, &base, 0.25)
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "ci: REGRESSION:", v)
	}
	// Allocation counters gate softly: a warning flags the problem but GC
	// wobble never breaks the build.
	for _, v := range bench.CompareCIAllocs(rep, &base, 0.25) {
		fmt.Fprintln(os.Stderr, "ci: WARNING:", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d benchmark medians regressed beyond tolerance", len(violations))
	}
	fmt.Printf("ci: %d benchmark medians within 25%% of baseline (%.1fs, report: %s)\n",
		len(rep.Medians), time.Since(start).Seconds(), outPath)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "voodoo-bench:", err)
	os.Exit(1)
}
