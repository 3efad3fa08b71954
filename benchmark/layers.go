package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"syscall"
	"time"

	"voodoo/internal/baseline/hyper"
	"voodoo/internal/compile"
	"voodoo/internal/exec"
	"voodoo/internal/metrics"
	"voodoo/internal/rel"
	"voodoo/internal/serve"
	"voodoo/internal/sql"
	"voodoo/internal/storage"
	"voodoo/internal/telemetry"
	"voodoo/internal/tpch"
	"voodoo/internal/trace"
	"voodoo/internal/verify"
)

// The layer pass is --trace 1. The contract wants every per-layer metric
// from every traced run, so the pass is the same whatever --workload says:
// a fixed sequence of short sections, one per workload's traffic, and each
// metric is measured on the traffic the README's table names for it. The
// only part that depends on it runs before the pass proper (ownWindow).
// Section lengths are shares of --seconds; counts that must repeat exactly
// are taken over fixed request counts, never over time.
const (
	directShare     = 0.30
	serveShare      = 0.08
	concurrentShare = 0.10

	// shortRequests is the fixed length of the sql-short section: with a
	// fifth of it fresh it overflows the 256-entry plan cache, and the
	// eviction count repeats exactly for a seed.
	shortRequests = 2000
	// telemetryRequests plan-cache hits go to each of the default,
	// spans-off and events-on servers.
	telemetryRequests = 2000
	noopRequests      = 500
	// loadgenLimit is the share of sql-short's median latency the
	// generator may spend on itself between requests.
	loadgenLimit = 0.05
)

// variantQueries are the TPC-H queries the engine-option ratios are taken
// on: a group-by, a filter-sum, a join and a wide disjunctive predicate.
// The interpreter yardstick runs the first two.
var (
	variantQueries = map[int]bool{1: true, 6: true, 12: true, 19: true}
	interpQueries  = map[int]bool{1: true, 6: true}
)

type layerPass struct {
	w       *world
	cfg     config
	rec     *recorder
	rep     *report
	kernelN int

	servers   []*server
	directMed map[string]float64 // default engine, untraced: class → median ms
}

func (lp *layerPass) share(s float64) time.Duration {
	return time.Duration(s * lp.cfg.seconds * float64(time.Second))
}

func (lp *layerPass) start(cfg serve.Config) (*server, error) {
	cfg.Cat = lp.w.cat
	s, err := startServer(cfg)
	if err == nil {
		lp.servers = append(lp.servers, s)
	}
	return s, err
}

func (lp *layerPass) closeServers() {
	for _, s := range lp.servers {
		s.close()
	}
	lp.servers = nil
}

func (lp *layerPass) run() error {
	defer lp.closeServers()
	for _, reqs := range [][]request{tpchRequests(), concurrentRequests(), newShortStream(lp.cfg.seed).hot} {
		if err := lp.w.gate.addReference(reqs); err != nil {
			return err
		}
	}
	for _, section := range []func() error{lp.direct, lp.served, lp.short, lp.kernels} {
		if err := section(); err != nil {
			return err
		}
	}
	lp.w.gate.verifyFresh()

	var shed, http5xx float64
	for _, s := range lp.servers {
		for _, reason := range []string{"draining", "memory", "deadline"} {
			shed += counter(s.reg, "voodoo_load_shed_total", "reason", reason)
		}
		for _, code := range []string{"500", "503", "504"} {
			http5xx += counter(s.reg, "voodoo_http_requests_total", "code", code)
		}
	}
	lp.rep.emit("serve.shed_total", shed)
	lp.rep.emit("serve.http_5xx_total", http5xx)
	lp.rep.emit("error_share", float64(lp.w.gate.failed)/float64(max(lp.w.gate.attempted, 1)))

	lp.rep.emit("storage.save_mb_s", lp.w.saveMBs)
	lp.rep.emit("storage.load_mb_s", lp.w.loadMBs)
	lp.rep.emit("storage.disk_bytes_per_raw_byte", lp.w.diskRatio)
	lp.rep.emit("tpch.generate_s", lp.w.generateS)

	// The pause total is the whole pass's: one window's share of it can be
	// exactly zero, which reads as a constant rather than a measurement.
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	lp.rep.emit("runtime.gc_pause_ms_total", float64(mem.PauseTotalNs)/1e6)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		lp.rep.emit("runtime.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	lp.closeServers()
	lp.w.close()
	exec.QuiesceScheduler()
	lp.rep.emit("runtime.goroutines_end", float64(runtime.NumGoroutine()))
	return nil
}

// ---- tpch-direct traffic ------------------------------------------------

// layerTimes are the per-layer milliseconds of one TPC-H query call,
// summed over the relational queries it runs (Q11, Q15 and Q20 run two).
type layerTimes struct {
	request, prepare, runPrepared float64
	lower, compile, execRun       float64
	assemble                      []float64 // one per relational query
}

// tracedRunner is a rel.Runner that does what rel.Engine.Run does —
// Prepare, then RunPrepared — with a span around each, and then repeats,
// with the same inputs and a span each, the public calls those two make
// internally: rel.Lower, compile.Compile (through Engine.Plan),
// verify.Program, verify.Kernel and Plan.RunWith. The repeats are probes:
// their time is kept out of the traced request's latency.
type tracedRunner struct {
	eng   *rel.Engine
	rec   *recorder
	req   int
	t     layerTimes
	probe time.Duration
}

func (t *tracedRunner) Catalog() *storage.Catalog { return t.eng.Cat }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func (t *tracedRunner) Run(q rel.Query) (*rel.Result, *exec.Stats, error) {
	ctx := context.Background()
	root := t.rec.begin("rel.Engine.Run", 0, t.req)
	id := t.rec.begin("rel.prepare", root, t.req)
	pr, err := t.eng.Prepare(q)
	prepare := t.rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = t.rec.begin("rel.run_prepared", root, t.req)
	res, stats, err := t.eng.RunPrepared(ctx, pr)
	runPrepared := t.rec.end(id)
	request := t.rec.end(root)
	if err != nil {
		return nil, nil, err
	}

	probeStart := time.Now()
	pb := t.rec.begin("probe", 0, t.req)
	id = t.rec.begin("rel.lower", pb, t.req)
	prog, err := rel.Lower(q, t.eng.Cat)
	lower := t.rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = t.rec.begin("compile.compile", pb, t.req)
	plan, err := t.eng.Plan(prog)
	comp := t.rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = t.rec.begin("verify.program", pb, t.req)
	diags := verify.Program(prog, t.eng.Cat)
	t.rec.end(id)
	id = t.rec.begin("verify.kernel", pb, t.req)
	diags = append(diags, verify.Kernel(plan.Kernel())...)
	t.rec.end(id)
	if verify.HasErrors(diags) {
		return nil, nil, fmt.Errorf("%s: verifier rejects a plan the engine ran: %v", q.Name, diags)
	}
	id = t.rec.begin("exec.run", pb, t.req)
	pres, err := plan.RunWith(ctx, compile.RunOpts{Pool: t.eng.Pool})
	execRun := t.rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	pres.Release()
	t.rec.end(pb)
	t.probe += time.Since(probeStart)

	t.t.request += ms(request)
	t.t.prepare += ms(prepare)
	t.t.runPrepared += ms(runPrepared)
	t.t.lower += ms(lower)
	t.t.compile += ms(comp)
	t.t.execRun += ms(execRun)
	t.t.assemble = append(t.t.assemble, max(ms(runPrepared-execRun), 0))
	return res, stats, nil
}

var (
	stepLine   = regexp.MustCompile(`(?m)^\s*\d+\. `)
	prunedLine = regexp.MustCompile(`(?m)^\s*\d+\. step\s+pruned `)
)

// planShape counts a plan's fragments, steps and zone-map-pruned steps
// from its public surface: the kernel and the EXPLAIN text.
func planShape(p *compile.Plan) (fragments, steps, pruned int) {
	text := p.Explain()
	return len(p.Kernel().Frags), len(stepLine.FindAllString(text, -1)), len(prunedLine.FindAllString(text, -1))
}

// specCounts reads the executor's fragment executions by path: interp,
// batch, fused.
func specCounts() [3]float64 {
	var out [3]float64
	for i, path := range []string{"interp", "batch", "fused"} {
		out[i] = counter(metrics.Default, "voodoo_fragments_specialized_total", "path", path)
	}
	return out
}

func (lp *layerPass) direct() error {
	lp.rec.setSection(wTPCHDirect)
	cat, def, g := lp.w.cat, lp.w.eng, lp.w.gate
	reqs := tpchRequests()
	variant := func(mod func(*rel.Engine)) *rel.Engine {
		e := *def
		mod(&e)
		return &e
	}
	var traces []*trace.Trace
	engines := []struct {
		name  string
		e     rel.Runner
		gated bool         // answers must be bit-identical to the default engine's
		only  map[int]bool // nil = all 14 queries
	}{
		{"default", def, true, nil},
		{"hyper", &hyper.Engine{Cat: cat}, false, nil},
		{"sink", variant(func(e *rel.Engine) { e.TraceSink = func(t *trace.Trace) { traces = append(traces, t) } }), true, nil},
		{"nospecialize", variant(func(e *rel.Engine) { e.NoSpecialize = true }), true, variantQueries},
		{"workers1", variant(func(e *rel.Engine) { e.Opt.Workers = 1 }), true, variantQueries},
		{"nopool", variant(func(e *rel.Engine) { e.Pool = nil }), true, variantQueries},
		{"interp", &rel.Engine{Cat: cat, Backend: rel.Interpreted}, false, interpQueries},
	}
	lat := map[string]map[string][]float64{"traced": {}}
	for _, en := range engines {
		lat[en.name] = map[string][]float64{}
	}
	layers := map[string][]layerTimes{}

	// sweep runs the queries of only (nil = all) on e and files their
	// latencies under name ("" = an untimed sweep).
	sweep := func(name string, e rel.Runner, gate *gate, only map[int]bool) error {
		for _, r := range reqs {
			if only != nil && !only[r.num] {
				continue
			}
			d, err := runDirect(e, gate, r)
			if err != nil {
				return err
			}
			if name != "" {
				lat[name][r.class] = append(lat[name][r.class], ms(d))
			}
		}
		return nil
	}

	// Two sweeps before the rounds, neither timed: one so the pool is warm
	// whichever workload set this world up, one for the exact counts.
	if err := sweep("", def, g, nil); err != nil {
		return err
	}
	pool0, frags0 := def.Pool.Stats(), specCounts()
	if err := sweep("", def, g, nil); err != nil {
		return err
	}
	pool1, frags1 := def.Pool.Stats(), specCounts()
	lp.rep.emit("exec.frags_interp", frags1[0]-frags0[0])
	lp.rep.emit("exec.frags_batch", frags1[1]-frags0[1])
	lp.rep.emit("exec.frags_fused", frags1[2]-frags0[2])
	hits, misses := pool1.Hits-pool0.Hits, pool1.Misses-pool0.Misses
	lp.rep.emit("vector.pool_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	lp.rep.emit("vector.pool_recycled_mb_per_query", float64(pool1.RecycledBytes-pool0.RecycledBytes)/1e6/float64(len(reqs)))

	budget := lp.share(directShare)
	begin := time.Now()
	for round := 0; round == 0 || time.Since(begin) < budget; round++ {
		traces = traces[:0] // interp_wall_share reads the last round's
		for _, en := range engines {
			gate := g
			if !en.gated {
				gate = nil
			}
			if err := sweep(en.name, en.e, gate, en.only); err != nil {
				return err
			}
		}
		// The traced sweep: spans around the calls of every request.
		for _, r := range reqs {
			qf, err := tpch.Query(r.num)
			if err != nil {
				return err
			}
			tr := &tracedRunner{eng: def, rec: lp.rec, req: lp.rec.request()}
			t0 := time.Now()
			res, _, err := qf(tr)
			total := time.Since(t0) - tr.probe
			if err != nil {
				return fmt.Errorf("%s traced: %w", r.key, err)
			}
			g.checkDirect(r, res)
			lat["traced"][r.class] = append(lat["traced"][r.class], ms(total))
			layers[r.class] = append(layers[r.class], tr.t)
		}
	}

	med := map[string]map[string]float64{}
	for name, byClass := range lat {
		med[name] = classQuantiles(byClass, 0.5)
	}
	lp.directMed = med["default"]

	var assemble []float64
	var sumPrepare, sumRequest, sumExec float64
	coverage := 1.0
	for _, r := range reqs {
		var execRuns []float64
		var covered, request float64
		for _, t := range layers[r.class] {
			execRuns = append(execRuns, t.execRun)
			assemble = append(assemble, t.assemble...)
			sumPrepare += t.prepare
			sumRequest += t.request
			sumExec += t.execRun
			// What the probes account for of the traced Engine.Run calls:
			// lowering, compilation, the plan run, and the assembly that
			// is RunPrepared's remainder. verify.* is off on this path.
			covered += t.lower + t.compile + t.execRun + sum(t.assemble)
			request += t.request
		}
		coverage = min(coverage, covered/request)
		lp.rep.emitQ("exec.run_ms_p50."+r.class, execRuns, 0.5)
		lp.rep.emitQ("hyper.run_ms_p50."+r.class, lat["hyper"][r.class], 0.5)
	}
	lp.rep.emit("rel.prepare_share", sumPrepare/sumRequest)
	lp.rep.emitQ("rel.assemble_ms_p50", assemble, 0.5)
	lp.rep.emit("bench.layer_coverage", coverage)
	lp.rep.emit("bench.trace_overhead_ratio", ratioGeomean(med["traced"], med["default"]))
	// Both sums come from the same traced calls, a probe right after its
	// request: set against the untraced sweeps' medians instead, three
	// rounds on a drifting host read anything from 0.77 to 1.01.
	lp.rep.emit("exec.request_share.tpch-direct", sumExec/sumRequest)
	lp.rep.emit("hyper.geomean_ms", geomean(values(med["hyper"])))
	lp.rep.emit("vs_hyper_ratio", ratioGeomean(med["default"], med["hyper"]))
	lp.rep.emit("trace.traced_vs_untraced_ratio", ratioGeomean(med["sink"], med["default"]))
	lp.rep.emit("trace.traced_vs_untraced_ratio.q06", med["sink"]["q06"]/med["default"]["q06"])
	lp.rep.emit("exec.nospecialize_ratio", ratioGeomean(med["nospecialize"], med["default"]))
	lp.rep.emit("exec.workers1_ratio", ratioGeomean(med["workers1"], med["default"]))
	lp.rep.emit("vector.nopool_ratio", ratioGeomean(med["nopool"], med["default"]))
	lp.rep.emitQ("interp.q01_ms", lat["interp"]["q01"], 0.5)
	lp.rep.emitQ("interp.q06_ms", lat["interp"]["q06"], 0.5)
	lp.rep.emit("exec.vs_interp_ratio", ratioGeomean(med["default"], med["interp"]))

	// Q6 reads four lineitem columns of 8-byte values.
	q6Bytes := float64(4 * 8 * cat.Table("lineitem").Col("l_shipdate").Len())
	lp.rep.emit("exec.scan_mb_s.q06", q6Bytes/1e6/(median(execRunsOf(layers["q06"]))/1e3))

	var interpNS, fragNS float64
	for _, t := range traces {
		for _, s := range t.Steps {
			if s.Kind == trace.KindFragment {
				fragNS += float64(s.WallNS)
				if s.Specialized == "interp" {
					interpNS += float64(s.WallNS)
				}
			}
		}
	}
	lp.rep.emit("exec.interp_wall_share", interpNS/max(fragNS, 1))
	return nil
}

func execRunsOf(ts []layerTimes) []float64 {
	var out []float64
	for _, t := range ts {
		out = append(out, t.execRun)
	}
	return out
}

// ---- tpch-serve and sql-concurrent traffic -------------------------------

func msOf(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func (lp *layerPass) served() error {
	srv, err := lp.start(serve.Config{})
	if err != nil {
		return err
	}
	g := lp.w.gate

	// tpch-serve: whole sweeps of the 14 queries, one client.
	lp.rec.setSection(wTPCHServe)
	reqs := tpchRequests()
	next := cycle(reqs)
	// One sweep for the exact path counts, to set against the direct
	// sweep's: the server always installs a trace sink, and a counted run
	// refuses specialized paths a plain run takes.
	f0 := specCounts()
	samples := flatten(window(srv, g, []func() request{next}, func(n int) bool { return n >= len(reqs) }, lp.rec))
	f1 := specCounts()
	lp.rep.emit("exec.frags_interp.served", f1[0]-f0[0])
	lp.rep.emit("exec.frags_batch.served", f1[1]-f0[1])
	lp.rep.emit("exec.frags_fused.served", f1[2]-f0[2])
	budget, begin := lp.share(serveShare), time.Now()
	samples = append(samples, flatten(window(srv, g, []func() request{next},
		func(n int) bool { return n%len(reqs) == 0 && n > 0 && time.Since(begin) >= budget }, lp.rec))...)
	servedExec := map[string][]float64{}
	for _, s := range samples {
		servedExec[s.class] = append(servedExec[s.class], float64(s.stats.ExecNS)/1e6)
	}
	servedMed := classQuantiles(servedExec, 0.5)
	lp.rep.emit("serve.vs_direct_ratio", ratioGeomean(servedMed, lp.directMed))
	lp.rep.emit("serve.vs_direct_ratio.q06", servedMed["q06"]/lp.directMed["q06"])

	// sql-concurrent: cfg.clients clients on the four lineitem statements.
	lp.rec.setSection(wSQLConcurrent)
	creqs := concurrentRequests()
	warm := newClient(srv.url)
	for _, r := range creqs {
		warm.do(g, r)
	}
	warm.close()
	morsels0 := counter(metrics.Default, "voodoo_morsels_total")
	budget, begin = lp.share(concurrentShare), time.Now()
	var sources []func() request
	for c := 0; c < lp.cfg.clients; c++ {
		sources = append(sources, newRoundRobin(lp.cfg.seed+int64(c), creqs).next)
	}
	samples = flatten(window(srv, g, sources,
		func(n int) bool { return n%len(creqs) == 0 && n > 0 && time.Since(begin) >= budget }, lp.rec))
	queue := msOf(samples, func(s sample) float64 { return float64(s.stats.QueueNS) / 1e6 })
	lp.rep.emitQ("serve.queue_ms_p50", queue, 0.50)
	lp.rep.emitQ("serve.queue_ms_p95", queue, 0.95)
	n := float64(len(samples))
	lp.rep.emit("exec.morsels_per_query", (counter(metrics.Default, "voodoo_morsels_total")-morsels0)/n)
	return nil
}

// ---- sql-short traffic ---------------------------------------------------

func (lp *layerPass) short() error {
	lp.rec.setSection(wSQLShort)
	defer enterShort()()
	g, cat := lp.w.gate, lp.w.cat
	srv, err := lp.start(serve.Config{})
	if err != nil {
		return err
	}
	stream := newShortStream(lp.cfg.seed)
	c := newClient(srv.url)
	defer c.close()
	for _, r := range stream.hot {
		c.do(g, r)
	}

	// The request stream itself: a fixed count, so the cache counters are
	// exact for a seed.
	hits0 := counter(srv.reg, "voodoo_plan_cache_hits_total")
	miss0 := counter(srv.reg, "voodoo_plan_cache_misses_total")
	var missTexts []string
	next := func() request {
		r := stream.next()
		if r.fresh {
			missTexts = append(missTexts, r.sql)
		}
		return r
	}
	samples := flatten(window(srv, g, []func() request{next},
		func(n int) bool { return n >= shortRequests }, lp.rec))
	hits := counter(srv.reg, "voodoo_plan_cache_hits_total") - hits0
	misses := counter(srv.reg, "voodoo_plan_cache_misses_total") - miss0
	lp.rep.emit("serve.plan_cache_hit_ratio", hits/max(hits+misses, 1))
	lp.rep.emit("serve.plan_cache_evictions", counter(srv.reg, "voodoo_plan_cache_evictions_total"))

	var compiles, latencies, execs []float64
	for _, s := range samples {
		if !s.stats.Cached {
			compiles = append(compiles, float64(s.stats.CompileNS)/1e3)
		}
		latencies = append(latencies, ms(s.latency))
		execs = append(execs, float64(s.stats.ExecNS)/1e6)
	}
	lp.rep.emitQ("serve.plan_lookup_us_p50", msOf(samples, func(s sample) float64 { return float64(s.stats.PlanLookupNS) / 1e3 }), 0.5)
	lp.rep.emitQ("serve.compile_us_p50", compiles, 0.5)
	lp.rep.emitQ("serve.exec_ms_p50", execs, 0.5)
	lp.rep.emitQ("serve.residual_ms_p50", msOf(samples, func(s sample) float64 {
		st := s.stats
		return ms(s.latency) - float64(st.QueueNS+st.PlanLookupNS+st.CompileNS+st.ExecNS)/1e6
	}), 0.5)
	lp.rep.emitQ("serve.response_bytes_p50", msOf(samples, func(s sample) float64 { return float64(len(s.body)) }), 0.5)
	lp.rep.emit("exec.request_share.sql-short", sum(execs)/sum(latencies))

	// Generator calibration: its own time between requests, and the same
	// client loop against the no-op handler.
	self := msOf(samples, func(s sample) float64 { return float64(s.self.Nanoseconds()) / 1e3 })
	lp.rep.emitQ("bench.loadgen_self_us_p50", self, 0.5)
	if limit := loadgenLimit * median(latencies) * 1e3; median(self) > limit {
		lp.rep.errorf("load generator spends %.1f us per request on itself, over %.0f%% of sql-short's median latency (%.1f us)",
			median(self), 100*loadgenLimit, limit/loadgenLimit)
	}
	var floor []float64
	for i := 0; i < noopRequests; i++ {
		d, err := c.noop(stream.hot[i%len(stream.hot)])
		if err != nil {
			return err
		}
		floor = append(floor, float64(d.Nanoseconds())/1e3)
	}
	lp.rep.emitQ("bench.http_floor_us_p50", floor, 0.5)

	// The miss path, layer by layer: the calls the server makes for a text
	// it has not seen, repeated here with a span each.
	var parse, plan, lower, comp, vprog, vkern []float64
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, text := range missTexts {
		req := lp.rec.request()
		pb := lp.rec.begin("probe", 0, req)
		id := lp.rec.begin("sql.parse", pb, req)
		stmt, err := sql.Parse(text)
		parse = append(parse, us(lp.rec.end(id)))
		if err != nil {
			return err
		}
		id = lp.rec.begin("sql.plan", pb, req)
		q, err := sql.Plan(stmt, cat)
		plan = append(plan, us(lp.rec.end(id)))
		if err != nil {
			return err
		}
		id = lp.rec.begin("rel.lower", pb, req)
		prog, err := rel.Lower(q, cat)
		lower = append(lower, us(lp.rec.end(id)))
		if err != nil {
			return err
		}
		id = lp.rec.begin("compile.compile", pb, req)
		p, err := lp.w.eng.Plan(prog)
		comp = append(comp, us(lp.rec.end(id)))
		if err != nil {
			return err
		}
		id = lp.rec.begin("verify.program", pb, req)
		verify.Program(prog, cat)
		vprog = append(vprog, us(lp.rec.end(id)))
		id = lp.rec.begin("verify.kernel", pb, req)
		verify.Kernel(p.Kernel())
		vkern = append(vkern, us(lp.rec.end(id)))
		lp.rec.end(pb)
	}
	lp.rep.emitQ("sql.parse_us_p50", parse, 0.5)
	lp.rep.emitQ("sql.plan_us_p50", plan, 0.5)
	lp.rep.emitQ("rel.lower_us_p50", lower, 0.5)
	lp.rep.emitQ("compile.compile_us_p50", comp, 0.5)
	lp.rep.emitQ("verify.program_us_p50", vprog, 0.5)
	lp.rep.emitQ("verify.kernel_us_p50", vkern, 0.5)

	// Plan shapes of the hot set: exact for a seed.
	var fragments, steps, pruned float64
	for _, r := range stream.hot {
		stmt, err := sql.Parse(r.sql)
		if err != nil {
			return err
		}
		q, err := sql.Plan(stmt, cat)
		if err != nil {
			return err
		}
		pr, err := lp.w.eng.Prepare(q)
		if err != nil {
			return err
		}
		f, s, p := planShape(pr.Plan())
		fragments, steps, pruned = fragments+float64(f), steps+float64(s), pruned+float64(p)
	}
	lp.rep.emit("compile.fragments_per_plan", fragments/float64(len(stream.hot)))
	lp.rep.emit("compile.steps_per_plan", steps/float64(len(stream.hot)))
	lp.rep.emit("compile.pruned_steps", pruned)

	return lp.telemetry(srv, stream.hot)
}

// telemetry compares the default server with one that keeps no span trees
// and one that also writes every query to a JSONL event log, on
// plan-cache hits.
func (lp *layerPass) telemetry(def *server, hot []request) error {
	spansOff, err := lp.start(serve.Config{SpanRetain: -1})
	if err != nil {
		return err
	}
	logFile, err := os.Create(filepath.Join(lp.cfg.tmp, "events.jsonl"))
	if err != nil {
		return err
	}
	defer os.Remove(logFile.Name())
	defer logFile.Close()
	events := telemetry.NewEventLog(telemetry.EventLogConfig{W: logFile, SampleRate: 1.0, Registry: metrics.NewRegistry()})
	defer events.Close()
	eventsOn, err := lp.start(serve.Config{Events: events})
	if err != nil {
		return err
	}

	// One request to each server in turn, so drift (GC phase, clock
	// frequency) falls on all three alike.
	servers := []*server{def, spansOff, eventsOn}
	clients := make([]*client, len(servers))
	lat := make([][]float64, len(servers))
	for i, s := range servers {
		clients[i] = newClient(s.url)
		defer clients[i].close()
		for _, r := range hot {
			clients[i].do(lp.w.gate, r)
		}
	}
	for n := 0; n < telemetryRequests; n++ {
		for i, c := range clients {
			_, d := c.do(lp.w.gate, hot[n%len(hot)])
			lat[i] = append(lat[i], ms(d))
		}
	}
	lp.rep.emit("telemetry.spans_off_ratio", median(lat[1])/median(lat[0]))
	lp.rep.emit("telemetry.events_on_ratio", median(lat[2])/median(lat[0]))
	return nil
}

// ---- synthetic kernels ---------------------------------------------------

func (lp *layerPass) kernels() error {
	sel, fold, gather, err := kernelProbes(lp.kernelN)
	if err != nil {
		return err
	}
	lp.rep.emit("exec.kernel_select_mb_s", sel)
	lp.rep.emit("exec.kernel_fold_mb_s", fold)
	lp.rep.emit("exec.kernel_gather_mb_s", gather)
	return nil
}
