package main

import (
	"encoding/json"
	"fmt"

	"voodoo/internal/tpch"
)

// The benchmark's contract: workloads, metric names, units, directions and
// regression bounds. BENCHMARK.json at the repository root is this table
// rendered by -print-spec; the smoke test fails when the two drift.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	wTPCHDirect    = "tpch-direct"
	wTPCHServe     = "tpch-serve"
	wSQLShort      = "sql-short"
	wSQLConcurrent = "sql-concurrent"
)

var workloads = []workloadDef{
	{wTPCHDirect, "14 TPC-H queries in-process, nothing observing: exec does >95% of the work, so kernel, specialization and scheduler changes show here undiluted"},
	{wTPCHServe, "same 14 queries as GET /query?q=N over loopback HTTP: identical exec work plus the trace sink, admission, telemetry and JSON that voodoo-serve users pay"},
	{wSQLShort, "sub-millisecond SQL over HTTP on one processor, 80% plan-cache hits and 20% never-repeated texts: sql, compile, verify, plan cache, telemetry and encoding dominate, exec does almost nothing"},
	{wSQLConcurrent, "min(nproc,4) clients on four scan-heavy cached lineitem statements: whole queries contend for cores, the buffer pool and GC; measured: no fragment here is long enough to be split into morsels"},
}

// runSeconds is how long one run measures; see README "Budget".
const runSeconds = 30

// The end-to-end times are steady ones: the fastest set-up repetition, and
// latencies built on each class's fastest request, or its median where
// several clients run (timedRun has the reasons). The issue's
// latency_p50_ms and throughput_qps, and its geomean of class medians
// (latency_geomean_p50_ms), held no bound the contract allows on the
// reference box — the driver read 20-30% between runs of one commit on the
// single-caller workloads, README "Validation" — so they are per-layer
// metrics, as the issue prescribes for a metric that cannot hold its bound,
// next to latency_p95_ms. The steady latencies spread 1-9% over ten seeds;
// their bound also has to hold the distance between the medians of two
// sets made an hour apart, 15% when the host was quiet for one and busy
// for the other.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_geomean_ms", "ms", "lower", 0.20},
	{"latency_mean_ms", "ms", "lower", 0.20},
}

// qname is the metric suffix of a TPC-H query ("q06").
func qname(n int) string { return fmt.Sprintf("q%02d", n) }

var perLayer = func() []metricDef {
	m := []metricDef{
		{Name: "sql.parse_us_p50", Unit: "us", Better: "lower"},
		{Name: "sql.plan_us_p50", Unit: "us", Better: "lower"},
		{Name: "rel.lower_us_p50", Unit: "us", Better: "lower"},
		{Name: "rel.assemble_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "rel.prepare_share", Unit: "ratio", Better: "lower"},
		{Name: "compile.compile_us_p50", Unit: "us", Better: "lower"},
		{Name: "compile.fragments_per_plan", Unit: "count", Better: "lower"},
		{Name: "compile.steps_per_plan", Unit: "count", Better: "lower"},
		{Name: "compile.pruned_steps", Unit: "count", Better: "higher"},
		{Name: "verify.program_us_p50", Unit: "us", Better: "lower"},
		{Name: "verify.kernel_us_p50", Unit: "us", Better: "lower"},
		{Name: "exec.frags_interp", Unit: "count", Better: "lower"},
		{Name: "exec.frags_batch", Unit: "count", Better: "higher"},
		{Name: "exec.frags_fused", Unit: "count", Better: "higher"},
		{Name: "exec.frags_interp.served", Unit: "count", Better: "lower"},
		{Name: "exec.frags_batch.served", Unit: "count", Better: "higher"},
		{Name: "exec.frags_fused.served", Unit: "count", Better: "higher"},
		{Name: "exec.interp_wall_share", Unit: "ratio", Better: "lower"},
		{Name: "exec.nospecialize_ratio", Unit: "ratio", Better: "higher"},
		{Name: "exec.workers1_ratio", Unit: "ratio", Better: "higher"},
		{Name: "exec.morsels_per_query", Unit: "count", Better: "lower"},
		{Name: "exec.scan_mb_s.q06", Unit: "MB/s", Better: "higher"},
		{Name: "exec.kernel_select_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "exec.kernel_fold_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "exec.kernel_gather_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "exec.request_share.tpch-direct", Unit: "ratio", Better: "higher"},
		{Name: "exec.request_share.sql-short", Unit: "ratio", Better: "lower"},
		{Name: "exec.vs_interp_ratio", Unit: "ratio", Better: "lower"},
		{Name: "interp.q01_ms", Unit: "ms", Better: "lower"},
		{Name: "interp.q06_ms", Unit: "ms", Better: "lower"},
		{Name: "hyper.geomean_ms", Unit: "ms", Better: "lower"},
		{Name: "vs_hyper_ratio", Unit: "ratio", Better: "lower"},
		{Name: "vector.pool_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "vector.pool_recycled_mb_per_query", Unit: "MB", Better: "lower"},
		{Name: "vector.nopool_ratio", Unit: "ratio", Better: "higher"},
		{Name: "storage.save_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "storage.load_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "storage.disk_bytes_per_raw_byte", Unit: "ratio", Better: "lower"},
		{Name: "tpch.generate_s", Unit: "s", Better: "lower"},
		{Name: "serve.queue_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.queue_ms_p95", Unit: "ms", Better: "lower"},
		{Name: "serve.plan_lookup_us_p50", Unit: "us", Better: "lower"},
		{Name: "serve.compile_us_p50", Unit: "us", Better: "lower"},
		{Name: "serve.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "serve.plan_cache_evictions", Unit: "count", Better: "lower"},
		{Name: "serve.exec_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.residual_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.response_bytes_p50", Unit: "bytes", Better: "lower"},
		{Name: "serve.vs_direct_ratio", Unit: "ratio", Better: "lower"},
		{Name: "serve.vs_direct_ratio.q06", Unit: "ratio", Better: "lower"},
		{Name: "serve.shed_total", Unit: "count", Better: "lower"},
		{Name: "serve.http_5xx_total", Unit: "count", Better: "lower"},
		{Name: "trace.traced_vs_untraced_ratio", Unit: "ratio", Better: "lower"},
		{Name: "trace.traced_vs_untraced_ratio.q06", Unit: "ratio", Better: "lower"},
		{Name: "telemetry.spans_off_ratio", Unit: "ratio", Better: "higher"},
		{Name: "telemetry.events_on_ratio", Unit: "ratio", Better: "lower"},
		{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "latency_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "latency_geomean_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "throughput_qps", Unit: "1/s", Better: "higher"},
		{Name: "allocs_per_op", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_cycles_per_100ops", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
		{Name: "runtime.bytes_per_op", Unit: "bytes", Better: "lower"},
		{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
		{Name: "runtime.goroutines_end", Unit: "count", Better: "lower"},
		{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
		{Name: "bench.layer_coverage", Unit: "ratio", Better: "higher"},
		{Name: "bench.loadgen_self_us_p50", Unit: "us", Better: "lower"},
		{Name: "bench.http_floor_us_p50", Unit: "us", Better: "lower"},
		{Name: "error_share", Unit: "ratio", Better: "lower"},
	}
	for _, n := range tpch.QueryNumbers {
		m = append(m, metricDef{Name: "exec.run_ms_p50." + qname(n), Unit: "ms", Better: "lower"})
	}
	for _, n := range tpch.QueryNumbers {
		m = append(m, metricDef{Name: "hyper.run_ms_p50." + qname(n), Unit: "ms", Better: "lower"})
	}
	return m
}()

// printSpec renders BENCHMARK.json.
func printSpec() ([]byte, error) {
	return json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/bench.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
}
