// Command benchmark is the repository's wall-clock benchmark: four
// workloads from SQL text (or a prebuilt TPC-H plan) to the answer a user
// reads, with per-layer numbers taken from outside each layer. See
// README.md in this directory; BENCHMARK.json at the repository root is
// the contract it is run under.
//
//	benchmark -workload NAME -seed S -seconds T -trace 0|1|2 [-out DIR]
//	benchmark -compare A_DIR B_DIR
//	benchmark -print-spec
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	cfg := config{setupFor: 2500 * time.Millisecond}
	flag.StringVar(&cfg.workload, "workload", "", "tpch-direct, tpch-serve, sql-short or sql-concurrent")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the data generator and the request streams")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured window")
	flag.Float64Var(&cfg.sf, "sf", 0.01, "TPC-H scale factor")
	trace := flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: layer pass, per-layer metrics; 2: both")
	out := flag.String("out", "", "also write <workload>.json (and <workload>.trace.json) into this directory")
	tmp := flag.String("tmp", ".", "directory for the storage round trip's files")
	compare := flag.Bool("compare", false, "compare the results under two directories: -compare A_DIR B_DIR")
	spec := flag.Bool("print-spec", false, "print BENCHMARK.json")
	flag.Parse()

	switch {
	case *spec:
		data, err := printSpec()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two directories"))
		}
		if err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	// Never more clients than processors: the generator shares the machine
	// with the server it drives.
	cfg.clients = min(runtime.NumCPU(), 4)
	// run.sh sets VOODOO_COMMIT; the driver's checkout is not a git
	// repository and has no commit to record.
	commit := os.Getenv("VOODOO_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	rep := newReport(cfg.workload, fingerprint{
		CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), SF: cfg.sf, Seed: cfg.seed, Commit: commit,
		Seconds: cfg.seconds, Clients: cfg.clients,
	})
	var rec *recorder
	if *trace >= 1 {
		rec = newRecorder()
	}
	if err := run(cfg, *trace, *tmp, kernelElems, rep, rec); err != nil {
		fatal(err)
	}

	var want []metricDef
	if *trace != 1 {
		want = append(want, endToEnd...)
	}
	if *trace >= 1 {
		want = append(want, perLayer...)
	}
	for _, name := range rep.missing(want) {
		rep.errorf("metric %q was not measured", name)
	}
	rep.print(os.Stdout)
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		if err := rep.writeFile(*out); err != nil {
			fatal(err)
		}
		if err := rec.write(filepath.Join(*out, cfg.workload+".trace.json")); err != nil {
			fatal(err)
		}
	}
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "benchmark:", e)
	}
	line, err := rep.resultLine(want)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct || len(rep.errs) > 0 {
		os.Exit(1)
	}
}

// run sets the workload up, measures it, and fills rep.
func run(cfg config, trace int, tmpBase string, kernelN int, rep *report, rec *recorder) error {
	p, err := planFor(cfg)
	if err != nil {
		return err
	}
	if cfg.tmp, err = tmpDir(tmpBase); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.tmp)

	w, err := ownTraffic(cfg, p, trace, rep)
	if w != nil {
		defer w.close()
	}
	if err != nil {
		return err
	}
	if trace >= 1 {
		lp := &layerPass{w: w, cfg: cfg, rec: rec, rep: rep, kernelN: kernelN}
		if err := lp.run(); err != nil {
			return err
		}
	}
	rep.Attempted, rep.Failed = w.gate.attempted, w.gate.failed
	rep.Correct = w.gate.failed == 0
	for _, e := range w.gate.errs {
		rep.errorf("wrong answer or failed request: %s", e)
	}
	return nil
}

// ownTraffic is the part of a run that is the selected workload's own, in
// the process state the workload asks for: the set-up, the timed run
// (unless --trace 1) and the layer pass's opening window (--trace 1, 2).
func ownTraffic(cfg config, p workloadPlan, trace int, rep *report) (*world, error) {
	if p.enter != nil {
		defer p.enter()()
	}
	if trace == 1 {
		// The layer pass does not report setup_s: it sets up once.
		w, _, err := setUp(cfg, p.warm, p.needServer)
		if err != nil {
			return nil, err
		}
		return w, ownWindow(w, p, rep)
	}
	w, setups, err := setUpRepeated(cfg, p.warm, p.needServer)
	if err != nil {
		return nil, err
	}
	rep.emitQ("setup_s", setups, 0)
	if err = timedRun(w, p, rep); err == nil && trace >= 1 {
		err = ownWindow(w, p, rep)
	}
	return w, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
