// Command voodoo-bench regenerates the paper's evaluation (§5): every
// figure of the microbenchmark study and the TPC-H comparisons, plus the
// design-choice ablations.
//
// Usage:
//
//	voodoo-bench [-n N] [-sf SF] [-seed S] [-o out.txt] [fig1|fig12|fig13|fig14|fig15|fig16|ablations|all]
//
// Times are simulated from the device cost models (see DESIGN.md §2);
// workloads really execute and results are verified en route. Being
// deterministic, every figure is pinned at a small configuration by
// internal/bench's golden test (testdata/figures.golden; -update rewrites
// it). Wall-clock speed is not measured here: that is benchmark/ (see its
// README).
package main

import (
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
)

func main() {
	n := flag.Int("n", 1<<20, "microbenchmark element count")
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor")
	seed := flag.Int64("seed", 42, "data generator seed")
	out := flag.String("o", "", "also write the report to this file")
	diagAddr := flag.String("diag-addr", "", "serve /metrics, pprof and expvar on this address while the benchmarks run (e.g. localhost:6060)")
	logLevel := flag.String("log-level", "off", "structured-log threshold on stderr: debug, info, warn, error or off")
	flag.Parse()

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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "voodoo-bench:", err)
	os.Exit(1)
}
