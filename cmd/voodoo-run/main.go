// Command voodoo-run executes one query through the Voodoo stack against a
// TPC-H catalog (generated on the fly or loaded from disk) and prints the
// result — optionally together with the plan, the generated kernel listing
// and the OpenCL C source the paper's backend would ship. The query is a SQL
// string, a TPC-H query number (-q) or a textual Voodoo program (-prog);
// every flag means the same on all three.
//
// Usage:
//
//	voodoo-run [-sf SF] [-data DIR]
//	           [-engine compiled|interp|bulk]
//	           [-show-kernel] [-show-opencl]
//	           [-explain] [-explain-analyze] [-trace out.json]
//	           [-timeout D] [-max-mem SIZE] [-verify]
//	           [-diag-addr ADDR] [-log-level LEVEL]
//	           'SELECT ...' | -q N | -prog FILE
//
// Examples:
//
//	voodoo-run 'SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag'
//	voodoo-run -q 6                # run TPC-H query 6
//	voodoo-run -explain 'SELECT SUM(l_extendedprice) AS rev FROM lineitem WHERE l_quantity < 24'
//	voodoo-run -explain-analyze -q 6
//	voodoo-run -engine bulk -explain-analyze -q 6
//	voodoo-run -trace q6.json -q 6
//	voodoo-run -show-opencl 'SELECT SUM(l_extendedprice*l_discount) AS rev FROM lineitem WHERE l_quantity < 24'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
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
	engine := flag.String("engine", "compiled", "compiled, interp (reference interpreter) or bulk (compiler with fusion off)")
	showKernel := flag.Bool("show-kernel", false, "print the kernel fragment listing of every plan that runs")
	showCL := flag.Bool("show-opencl", false, "print the generated OpenCL C of every plan that runs")
	qnum := flag.Int("q", 0, "run this TPC-H query number instead of a SQL string")
	progFile := flag.String("prog", "", "run a textual Voodoo program (paper SSA notation) from this file")
	timeout := flag.Duration("timeout", 0, "per-query wall-clock budget (e.g. 500ms; 0 = unlimited)")
	maxMem := flag.String("max-mem", "", "per-query buffer allocation budget (e.g. 64m, 1g; empty = unlimited)")
	explain := flag.Bool("explain", false, "print the static execution plan")
	analyze := flag.Bool("explain-analyze", false, "run the query and print the plan with measured per-step times, items and bytes")
	traceOut := flag.String("trace", "", "run the query and write its execution trace as JSON to this file")
	diagAddr := flag.String("diag-addr", "", "serve /metrics, pprof and expvar on this address for the process lifetime (e.g. localhost:6060)")
	logLevel := flag.String("log-level", "off", "structured-log threshold on stderr: debug, info, warn, error or off")
	doVerify := flag.Bool("verify", false, "statically verify programs and compiled plans before execution (voodoo_verify_failures_total counts rejections) and list their warnings")
	flag.Parse()

	// Exactly one source says how the plan comes to exist; everything
	// after this is the same for all three.
	var name string
	var given []source
	if *progFile != "" {
		name, given = *progFile, append(given, progSource(*progFile))
	}
	if *qnum > 0 {
		name, given = fmt.Sprintf("TPC-H Q%d", *qnum), append(given, tpchSource(*qnum))
	}
	if sqlText := strings.TrimSpace(strings.Join(flag.Args(), " ")); sqlText != "" {
		name, given = sqlText, append(given, sqlSource(sqlText))
	}
	if len(given) != 1 {
		usage(fmt.Errorf("want one query — a SQL string, -q N or -prog FILE — got %d", len(given)))
	}
	e := &rel.Engine{}
	var err error
	if e.Backend, err = rel.ParseEngine(*engine); err != nil {
		usage(err)
	}
	out := output{kernel: *showKernel, opencl: *showCL, explain: *explain, analyze: *analyze, traceFile: *traceOut}

	verify.SetEnabled(*doVerify)
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

	if e.Limits.MaxBytes, err = rel.ParseSize(*maxMem); err != nil {
		fatal(err)
	}
	// One context carries -timeout for every source; a TPC-H query runs
	// through the engine's Run, which reads it from BaseContext.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	e.BaseContext = ctx
	if *data != "" {
		e.Cat, err = storage.Load(*data)
	} else {
		e.Cat = tpch.Generate(tpch.Config{SF: *sf, Seed: 42})
	}
	if err != nil {
		fatal(err)
	}

	// The engine's sinks are the pipeline: the plan is displayed as it is
	// about to run (so what is shown is what executes), and the run is
	// traced when a trace is wanted.
	e.PlanSink = out.plan
	if e.Backend == rel.Interpreted && (out.kernel || out.opencl || out.explain) {
		fmt.Println("-- interp engine: the reference interpreter compiles no plan and no kernel; -explain-analyze lists the statements it runs")
	}
	var tr *trace.Trace
	if out.analyze || out.traceFile != "" {
		e.TraceSink = func(t *trace.Trace) {
			t.Query = name
			tr = t
		}
	}
	start := time.Now()
	summary, body, err := given[0](ctx, e, !out.explain)
	if err != nil {
		fatal(err)
	}
	writeTrace(out.traceFile, tr)
	switch {
	case out.analyze && tr != nil:
		fmt.Print(tr.String())
	case !out.explain && !out.analyze:
		fmt.Printf("-- %s (%.1f ms wall)\n%s", summary, float64(time.Since(start).Microseconds())/1000, body)
	}
}

// output is what a run prints besides (or instead of) its result: each field
// is one flag, read once in main.
type output struct {
	kernel, opencl, explain, analyze bool
	traceFile                        string
}

// plan displays one compiled plan; it is the engine's PlanSink. Under
// -verify it lists the plan's warnings: a plan with errors never gets here.
func (o output) plan(p *compile.Plan) {
	if verify.Enabled() {
		for _, d := range p.Verify() {
			fmt.Fprintln(os.Stderr, "voodoo-run:", d)
		}
	}
	if o.kernel {
		fmt.Println("-- kernel fragments:")
		fmt.Println(p.Kernel())
	}
	if o.opencl {
		fmt.Println("-- generated OpenCL C:")
		fmt.Println(opencl.Generate(p.Kernel()))
	}
	if o.explain {
		fmt.Print(p.Explain())
	}
}

// A source is one way a query's plans come to exist on the engine. Every
// plan reaches e.PlanSink as it is compiled, before it runs, and every trace
// e.TraceSink; the result comes back as a one-line summary and a body. With
// execute unset the source stops once the plan exists (a static -explain).
type source func(ctx context.Context, e *rel.Engine, execute bool) (summary, body string, err error)

// progSource parses and compiles a textual Voodoo program.
func progSource(file string) source {
	return func(ctx context.Context, e *rel.Engine, execute bool) (string, string, error) {
		text, err := os.ReadFile(file)
		if err != nil {
			return "", "", err
		}
		prog, err := core.Parse(string(text))
		if err != nil {
			return "", "", err
		}
		// The engine's compile options, but not Engine.Plan: its
		// ScatterParallel is only safe for lowered queries.
		var plan *compile.Plan
		if e.Backend != rel.Interpreted {
			opt := e.Opt
			opt.ForceBulk = e.Backend == rel.BulkCompiled
			if plan, err = compile.Compile(prog, e.Cat, opt); err != nil {
				return "", "", err
			}
			e.PlanSink(plan)
		}
		if !execute {
			return "", "", nil
		}
		var tr *trace.Trace
		values := map[core.Ref]*vector.Vector{}
		if plan == nil {
			res, err := interp.Run(ctx, prog, e.Cat, interp.Opts{Trace: e.TraceSink != nil})
			if err != nil {
				return "", "", err
			}
			tr = res.Trace
			for _, ref := range prog.Roots() {
				values[ref] = res.Value(ref)
			}
		} else {
			res, err := plan.RunWith(ctx, e.RunOpts())
			if err != nil {
				return "", "", err
			}
			tr, values = res.Trace, res.Values
		}
		if tr != nil {
			e.TraceSink(tr)
		}
		var body strings.Builder
		for ref, v := range values {
			fmt.Fprintf(&body, "%s =\n%s", prog.Stmts[ref].Label, v)
		}
		return fmt.Sprintf("%d root value(s)", len(values)), body.String(), nil
	}
}

// sqlSource parses, plans and prepares one SQL statement.
func sqlSource(text string) source {
	return func(ctx context.Context, e *rel.Engine, execute bool) (string, string, error) {
		stmt, err := sql.Parse(text)
		if err != nil {
			return "", "", err
		}
		q, err := sql.Plan(stmt, e.Cat)
		if err != nil {
			return "", "", err
		}
		q.Name = text
		pr, err := e.Prepare(q)
		if err != nil {
			return "", "", err
		}
		if !execute {
			return "", "", nil
		}
		res, _, err := e.RunPrepared(ctx, pr)
		if err != nil {
			return "", "", err
		}
		return fmt.Sprintf("%d rows", len(res.Rows)), res.String(), nil
	}
}

// tpchSource runs a prebuilt TPC-H query, whose one plan reaches the
// sinks through the engine.
func tpchSource(n int) source {
	return func(_ context.Context, e *rel.Engine, execute bool) (string, string, error) {
		qf, err := tpch.Query(n)
		if err != nil {
			return "", "", err
		}
		var r rel.Runner = e
		if !execute {
			r = planOnly{e}
		}
		res, _, err := qf(r)
		if err != nil || !execute {
			return "", "", err
		}
		return fmt.Sprintf("TPC-H Q%d", n), res.String(), nil
	}
}

// planOnly is the Runner of a static -explain: Run prepares the query,
// which delivers its plan to PlanSink, and executes nothing.
type planOnly struct{ *rel.Engine }

func (p planOnly) Run(q rel.Query) (*rel.Result, *exec.Stats, error) {
	_, err := p.Prepare(q)
	return &rel.Result{}, nil, err
}

// writeTrace writes the run's trace as JSON.
func writeTrace(path string, tr *trace.Trace) {
	if path == "" || tr == nil {
		return
	}
	data, err := tr.JSON()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "voodoo-run: wrote trace to %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "voodoo-run:", err)
	os.Exit(1)
}

// usage reports a command-line mistake and exits 2, as the flag package
// does for the mistakes it finds itself.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "voodoo-run:", err)
	os.Exit(2)
}
