// Command voodoo-serve is the long-running Voodoo query daemon: it loads
// (or generates) a TPC-H catalog once, then serves SQL over HTTP with
// the exec resource governor's limits applied per request and the full
// diagnostics surface mounted — Prometheus /metrics, pprof, expvar, and
// the live /queries registry with per-step progress and cancellation.
//
// Usage:
//
//	voodoo-serve [-addr :8080] [-diag-addr ADDR] [-sf SF] [-data DIR]
//	             [-timeout 30s] [-max-mem 1g] [-max-extent N] [-max-heap 4g]
//	             [-concurrency N] [-slow N]
//	             [-drain-timeout 10s] [-verify]
//	             [-log-level info] [-events FILE] [-event-sample 0.01]
//	             [-slow-threshold 1s] [-slo query=500ms:0.99] [-spans N]
//
// Every query runs on the compiled engine, every fragment as batch
// primitives in tiles; the other engines (-engine interp, bulk) are
// voodoo-run's.
//
// Telemetry: every query gets one id (the inbound W3C traceparent's
// trace id when present, minted otherwise) that appears in the
// response headers, the structured stderr log, the JSONL event log
// (-events; sampled by -event-sample with errors/shed/slow always
// kept), the /debug/spans trees, and the slow-query ring. -slo sets
// per-route latency objectives whose error-budget burn shows up in
// /healthz and the voodoo_slo_* metrics. Inspect an event log with
// voodoo-trace.
//
// Lifecycle signals:
//
//	SIGTERM/SIGINT  graceful shutdown: stop accepting, drain in-flight
//	                queries up to -drain-timeout, then cancel survivors
//	                through the context plumbing and exit.
//	SIGHUP          hot catalog reload: the -data directory (or a fresh
//	                generation) is loaded off to the side and swapped in
//	                atomically; in-flight queries finish on the catalog
//	                they started with.
//
// A catalog directory with corrupt table files starts the daemon in
// degraded mode: the damaged tables are quarantined (listed in /healthz),
// queries touching them answer 503, and the rest serve normally.
//
// Examples:
//
//	voodoo-serve -sf 0.1 &
//	curl -s localhost:8080/query -d 'SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag'
//	curl -s 'localhost:8080/query?q=6'
//	curl -s localhost:8080/queries
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics | grep voodoo_
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"voodoo/internal/diag"
	"voodoo/internal/exec"
	"voodoo/internal/metrics"
	"voodoo/internal/rel"
	"voodoo/internal/serve"
	"voodoo/internal/storage"
	"voodoo/internal/telemetry"
	"voodoo/internal/telemetry/slo"
	"voodoo/internal/tpch"
	"voodoo/internal/verify"
)

func main() {
	addr := flag.String("addr", ":8080", "serve SQL and diagnostics on this address")
	diagAddr := flag.String("diag-addr", "", "additionally serve the diagnostics endpoints on this address (e.g. localhost:6060)")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor for the generated catalog")
	data := flag.String("data", "", "load the catalog from this directory instead of generating")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request wall-clock budget, queue wait included (0 = unlimited)")
	maxMem := flag.String("max-mem", "", "per-request buffer allocation budget (e.g. 64m, 1g; empty = unlimited)")
	maxExtent := flag.Int("max-extent", 0, "per-request fragment extent cap (0 = unlimited)")
	concurrency := flag.Int("concurrency", 0, "max queries executing at once (0 = GOMAXPROCS); excess requests queue")
	slowN := flag.Int("slow", 16, "retain full traces of the N slowest queries")
	maxHeap := flag.String("max-heap", "", "live-heap watermark above which new queries are shed with 503 (e.g. 4g; empty = disabled)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a SIGTERM drain waits for in-flight queries before cancelling them")
	logLevel := flag.String("log-level", "info", "structured-log threshold on stderr: debug, info, warn, error or off")
	eventsPath := flag.String("events", "", "append sampled JSONL query events to this file (empty = disabled)")
	eventSample := flag.Float64("event-sample", telemetry.DefaultSampleRate, "retention probability for ordinary query events (errors, shed and slow queries are always kept)")
	slowThreshold := flag.Duration("slow-threshold", time.Second, "always retain events for queries at or above this wall time (0 = off)")
	sloSpec := flag.String("slo", "query=500ms:0.99", "latency objectives, route=latency:target[,...] (empty disables SLO tracking)")
	spanRetain := flag.Int("spans", 0, "retain the N most recent queries for /debug/spans (0 = 64, negative disables)")
	doVerify := flag.Bool("verify", false, "statically verify programs and compiled plans before execution (voodoo_verify_failures_total counts rejections)")
	flag.Parse()

	verify.SetEnabled(*doVerify)
	if err := telemetry.InstallJSON(os.Stderr, *logLevel); err != nil {
		fatal(err)
	}
	slos, err := slo.Parse(*sloSpec)
	if err != nil {
		fatal(err)
	}
	var events *telemetry.EventLog
	if *eventsPath != "" {
		f, err := os.OpenFile(*eventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		events = telemetry.NewEventLog(telemetry.EventLogConfig{
			W: f, SampleRate: *eventSample, SlowThreshold: *slowThreshold,
		})
	}

	limits := exec.Limits{MaxExtent: *maxExtent}
	if limits.MaxBytes, err = rel.ParseSize(*maxMem); err != nil {
		fatal(err)
	}
	highWater, err := rel.ParseSize(*maxHeap)
	if err != nil {
		fatal(err)
	}

	cat := loadCatalog(*data, *sf)

	s := serve.New(serve.Config{
		Cat:           cat,
		Limits:        limits,
		Timeout:       *timeout,
		MaxConcurrent: *concurrency,
		SlowQueries:   *slowN,
		MemHighWater:  highWater,
		Events:        events,
		SpanRetain:    *spanRetain,
		SLO:           slos,
	})

	if *diagAddr != "" {
		ds, err := diag.Serve(*diagAddr, metrics.Default, s.QueryRegistry(), s.Health)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "voodoo-serve: diagnostics on http://%s\n", ds.Addr)
	}

	// Bind explicitly so the resolved address (":0" listeners included)
	// is printed — scripts and the signal-handling smoke test parse it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: s.Mux()}
	go func() {
		fmt.Fprintf(os.Stderr, "voodoo-serve: listening on %s\n", ln.Addr())
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()

	// SIGHUP reloads the catalog off to the side and swaps it in without
	// dropping a single in-flight query.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			start := time.Now()
			next := loadCatalog(*data, *sf)
			s.SwapCatalog(next)
			fmt.Fprintf(os.Stderr, "voodoo-serve: catalog reloaded in %.1fs (%s)\n",
				time.Since(start).Seconds(), catalogSummary(next))
		}
	}()

	// Serve until interrupted, then drain: stop admitting (healthz flips
	// to draining so load balancers eject us), let in-flight queries
	// finish up to -drain-timeout, then cancel the stragglers through the
	// context plumbing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "voodoo-serve: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	s.StartDraining()
	if err := s.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "voodoo-serve:", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		srv.Close()
	}
	// The emitters are quiet now: drain the event-log buffer to disk so
	// the shutdown loses no accepted event.
	if err := events.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "voodoo-serve: event log:", err)
	}
	// Last: stop the shared morsel pool so the process exits with no
	// scheduler goroutines behind it.
	exec.QuiesceScheduler()
	fmt.Fprintln(os.Stderr, "voodoo-serve: shutdown complete")
}

// loadCatalog loads -data in degraded mode (quarantining corrupt tables
// rather than refusing to start) or generates a fresh TPC-H catalog.
func loadCatalog(data string, sf float64) *storage.Catalog {
	start := time.Now()
	var cat *storage.Catalog
	if data != "" {
		var err error
		cat, err = storage.LoadDegraded(data)
		if err != nil {
			fatal(err)
		}
		for _, name := range cat.Quarantined() {
			fmt.Fprintf(os.Stderr, "voodoo-serve: QUARANTINED %s: %v\n", name, cat.QuarantineErr(name))
		}
		if q := cat.Quarantined(); len(q) > 0 {
			fmt.Fprintf(os.Stderr, "voodoo-serve: starting DEGRADED: %d of %d tables quarantined\n",
				len(q), len(q)+len(cat.Tables()))
		}
	} else {
		cat = tpch.Generate(tpch.Config{SF: sf, Seed: 42})
	}
	fmt.Fprintf(os.Stderr, "voodoo-serve: catalog ready in %.1fs (%s)\n",
		time.Since(start).Seconds(), catalogSummary(cat))
	return cat
}

func catalogSummary(cat *storage.Catalog) string {
	var parts []string
	for _, name := range cat.Tables() {
		parts = append(parts, fmt.Sprintf("%s:%d", name, cat.Table(name).N))
	}
	return strings.Join(parts, " ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "voodoo-serve:", err)
	os.Exit(1)
}
