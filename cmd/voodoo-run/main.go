// Command voodoo-run executes a SQL query through the Voodoo stack against
// a TPC-H catalog (generated on the fly or loaded from disk) and prints the
// result — optionally together with the generated kernel listing and the
// OpenCL C source the paper's backend would ship.
//
// Usage:
//
//	voodoo-run [-sf SF] [-data DIR] [-backend compiled|interp|bulk]
//	           [-predicate] [-show-kernel] [-show-opencl]
//	           [-explain] [-explain-analyze] [-trace out.json]
//	           [-diag-addr ADDR] [-q N] 'SELECT ...'
//
// Examples:
//
//	voodoo-run 'SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag'
//	voodoo-run -q 6                # run TPC-H query 6
//	voodoo-run -explain 'SELECT SUM(l_extendedprice) AS rev FROM lineitem WHERE l_quantity < 24'
//	voodoo-run -explain-analyze -q 6
//	voodoo-run -trace q6.json -q 6
//	voodoo-run -show-opencl 'SELECT SUM(l_extendedprice*l_discount) AS rev FROM lineitem WHERE l_quantity < 24'
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/diag"
	"voodoo/internal/exec"
	"voodoo/internal/interp"
	"voodoo/internal/metrics"
	"voodoo/internal/opencl"
	"voodoo/internal/rel"
	"voodoo/internal/sql"
	"voodoo/internal/storage"
	"voodoo/internal/telemetry"
	"voodoo/internal/tpch"
	"voodoo/internal/trace"
	"voodoo/internal/vector"
	"voodoo/internal/verify"
)

func main() {
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor for the generated catalog")
	data := flag.String("data", "", "load the catalog from this directory instead of generating")
	backend := flag.String("backend", "compiled", "compiled, interp or bulk")
	predicate := flag.Bool("predicate", false, "compile selections branch-free (predication)")
	showKernel := flag.Bool("show-kernel", false, "print the kernel fragment listing")
	showCL := flag.Bool("show-opencl", false, "print the generated OpenCL C")
	qnum := flag.Int("q", 0, "run this TPC-H query number instead of a SQL string")
	progFile := flag.String("prog", "", "run a textual Voodoo program (paper SSA notation) from this file")
	timeout := flag.Duration("timeout", 0, "per-query wall-clock budget (e.g. 500ms; 0 = unlimited)")
	morsel := flag.Int("morsel", 0, "scheduling granularity of parallel fragments in work items (0 = default)")
	noSpecialize := flag.Bool("no-specialize", false, "disable fragment specialization (batch primitives); run every fragment through the per-element interpreter")
	maxMem := flag.String("max-mem", "", "per-query buffer allocation budget (e.g. 64m, 1g; empty = unlimited)")
	explain := flag.Bool("explain", false, "print the static execution plan (TPC-H -q queries still execute, to drive multi-phase lowering)")
	analyze := flag.Bool("explain-analyze", false, "run the query and print the plan with measured per-step times, items and bytes")
	traceOut := flag.String("trace", "", "run the query and write its execution trace as JSON to this file")
	diagAddr := flag.String("diag-addr", "", "serve /metrics, pprof and expvar on this address for the process lifetime (e.g. localhost:6060)")
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
		fmt.Fprintf(os.Stderr, "voodoo-run: diagnostics on http://%s\n", ds.Addr)
	}

	var limits exec.Limits
	if *maxMem != "" {
		n, err := parseSize(*maxMem)
		if err != nil {
			fatal(err)
		}
		limits.MaxBytes = n
	}
	if *timeout > 0 {
		limits.Deadline = time.Now().Add(*timeout)
	}

	var cat *storage.Catalog
	var err error
	if *data != "" {
		cat, err = storage.Load(*data)
	} else {
		cat = tpch.Generate(tpch.Config{SF: *sf, Seed: 42})
	}
	if err != nil {
		fatal(err)
	}

	e := &rel.Engine{Cat: cat}
	switch *backend {
	case "compiled":
		e.Backend = rel.Compiled
	case "interp":
		e.Backend = rel.Interpreted
	case "bulk":
		e.Backend = rel.BulkCompiled
	default:
		fatal(fmt.Errorf("unknown backend %q", *backend))
	}
	e.Opt = compile.Options{Predication: *predicate}
	e.Limits = limits
	e.MorselSize = *morsel
	e.NoSpecialize = *noSpecialize

	if *progFile != "" {
		src, err := os.ReadFile(*progFile)
		if err != nil {
			fatal(err)
		}
		prog, err := core.Parse(string(src))
		if err != nil {
			fatal(err)
		}
		// -backend picks the engine here as on the SQL and -q paths: interp
		// is the reference interpreter, bulk the compiler with fusion off
		// (not Engine.Plan, whose ScatterParallel is only safe for lowered
		// queries).
		var plan *compile.Plan
		if e.Backend != rel.Interpreted || *showKernel || *showCL {
			opt := e.Opt
			opt.ForceBulk = e.Backend == rel.BulkCompiled
			if plan, err = compile.Compile(prog, cat, opt); err != nil {
				fatal(err)
			}
		}
		if *showKernel {
			fmt.Println("-- kernel fragments:")
			fmt.Println(plan.Kernel())
		}
		if *showCL {
			fmt.Println("-- generated OpenCL C:")
			fmt.Println(opencl.Generate(plan.Kernel()))
		}
		if *explain {
			if e.Backend == rel.Interpreted {
				fmt.Println("-- interpreted backend: one bulk step per statement")
				fmt.Print(prog)
			} else {
				fmt.Print(plan.Explain())
			}
			return
		}
		traced := *analyze || *traceOut != ""
		start := time.Now()
		var values map[core.Ref]*vector.Vector
		var tr *trace.Trace
		ctx := context.Background()
		if e.Backend == rel.Interpreted {
			// The compiled plan enforces the governor's deadline itself; the
			// interpreter has no governor.
			if !limits.Deadline.IsZero() {
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadline(ctx, limits.Deadline)
				defer cancel()
			}
			res, err := interp.Run(ctx, prog, cat, interp.Opts{Trace: traced})
			if err != nil {
				fatal(err)
			}
			tr, values = res.Trace, map[core.Ref]*vector.Vector{}
			for _, ref := range prog.Roots() {
				values[ref] = res.Value(ref)
			}
		} else {
			// The same per-run options the SQL and -q paths get through the
			// engine.
			res, err := plan.RunWith(ctx, compile.RunOpts{
				Limits: e.Limits, MorselSize: e.MorselSize, NoSpecialize: e.NoSpecialize,
				Trace: traced,
			})
			if err != nil {
				fatal(err)
			}
			tr, values = res.Trace, res.Values
		}
		if tr != nil {
			tr.Query = *progFile
			if *analyze {
				fmt.Print(tr.String())
			}
			writeTraces(*traceOut, []*trace.Trace{tr})
		}
		if !*analyze {
			fmt.Printf("-- %d root value(s) (%.1f ms wall)\n", len(values), msSince(start))
			for ref, v := range values {
				fmt.Printf("%s =\n%s", prog.Stmts[ref].Label, v)
			}
		}
		return
	}

	if *qnum > 0 {
		qf, err := tpch.Query(*qnum)
		if err != nil {
			fatal(err)
		}
		if *explain {
			e.PlanSink = func(p *compile.Plan) { fmt.Print(p.Explain()) }
		}
		var traces []*trace.Trace
		if *analyze || *traceOut != "" {
			e.TraceSink = func(t *trace.Trace) {
				t.Query = fmt.Sprintf("TPC-H Q%d", *qnum)
				traces = append(traces, t)
			}
		}
		start := time.Now()
		res, _, err := qf(e)
		if err != nil {
			fatal(err)
		}
		if *analyze {
			for _, t := range traces {
				fmt.Print(t.String())
			}
		}
		writeTraces(*traceOut, traces)
		if !*analyze && !*explain {
			fmt.Printf("-- TPC-H Q%d (%.1f ms wall)\n%s", *qnum, msSince(start), res)
		}
		return
	}

	src := strings.Join(flag.Args(), " ")
	if strings.TrimSpace(src) == "" {
		fatal(fmt.Errorf("no query given (pass a SQL string or -q N)"))
	}
	stmt, err := sql.Parse(src)
	if err != nil {
		fatal(err)
	}
	q, err := sql.Plan(stmt, cat)
	if err != nil {
		fatal(err)
	}

	if *showKernel || *showCL {
		// Compile once more standalone to show the artifacts.
		prog, err := lowerForDisplay(e, q)
		if err != nil {
			fatal(err)
		}
		plan, err := compile.Compile(prog, cat, e.Opt)
		if err != nil {
			fatal(err)
		}
		if *showKernel {
			fmt.Println("-- kernel fragments:")
			fmt.Println(plan.Kernel())
		}
		if *showCL {
			fmt.Println("-- generated OpenCL C:")
			fmt.Println(opencl.Generate(plan.Kernel()))
		}
	}

	q.Name = src
	if *explain {
		prog, err := rel.Lower(q, cat)
		if err != nil {
			fatal(err)
		}
		if e.Backend == rel.Interpreted {
			fmt.Println("-- interpreted backend: one bulk step per statement")
			fmt.Print(prog)
		} else {
			plan, err := e.Plan(prog)
			if err != nil {
				fatal(err)
			}
			fmt.Print(plan.Explain())
		}
		return
	}

	var traces []*trace.Trace
	if *analyze || *traceOut != "" {
		e.TraceSink = func(t *trace.Trace) { traces = append(traces, t) }
	}
	start := time.Now()
	res, _, err := e.Run(q)
	if err != nil {
		fatal(err)
	}
	writeTraces(*traceOut, traces)
	if *analyze {
		for _, t := range traces {
			fmt.Print(t.String())
		}
		return
	}
	fmt.Printf("-- %d rows (%.1f ms wall)\n%s", len(res.Rows), msSince(start), renderDecoded(res))
}

// writeTraces writes the collected traces as JSON: one object for a single
// trace, an array for multi-phase queries.
func writeTraces(path string, traces []*trace.Trace) {
	if path == "" || len(traces) == 0 {
		return
	}
	var data []byte
	var err error
	if len(traces) == 1 {
		data, err = traces[0].JSON()
	} else {
		data, err = json.MarshalIndent(traces, "", "  ")
	}
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "voodoo-run: wrote trace to %s\n", path)
}

// lowerForDisplay exposes the Voodoo program of a query via the engine's
// public lowering (rel.Lower).
func lowerForDisplay(e *rel.Engine, q rel.Query) (*core.Program, error) {
	return rel.Lower(q, e.Cat)
}

// renderDecoded renders the result with dictionary columns decoded.
func renderDecoded(res *rel.Result) string {
	var sb strings.Builder
	for _, c := range res.Cols {
		fmt.Fprintf(&sb, "%-20s", c)
	}
	sb.WriteString("\n")
	for _, row := range res.Rows {
		for _, c := range res.Cols {
			if s := res.Decode(c, row[c]); s != fmt.Sprintf("%g", row[c]) {
				fmt.Fprintf(&sb, "%-20s", s)
			} else {
				fmt.Fprintf(&sb, "%-20.4f", row[c])
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1000 }

// parseSize parses a byte count with an optional k/m/g suffix (powers of
// 1024): "512", "64m", "1g".
func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch strings.ToLower(s[len(s)-1:]) {
	case "k":
		mult, s = 1<<10, s[:len(s)-1]
	case "m":
		mult, s = 1<<20, s[:len(s)-1]
	case "g":
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q (want e.g. 512, 64m, 1g)", s)
	}
	return n * mult, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "voodoo-run:", err)
	os.Exit(1)
}
