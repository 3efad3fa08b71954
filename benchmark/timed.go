package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"voodoo/internal/verify"
)

// p95MinSamples is the sample count from which a p95 has ten samples
// beyond it with room to spare.
const p95MinSamples = 210

// workloadPlan is how one workload is set up and driven.
type workloadPlan struct {
	warm       []request
	needServer bool
	// enter, where set, puts the process in the state the workload's
	// traffic runs under and returns the way back (see enterShort).
	enter func() (leave func())
	// sources builds the request sources, one per client.
	sources func(cfg config) []func() request
	// boundary is the request count per client at which the window may
	// stop, so every class is issued equally often.
	boundary int
}

func planFor(cfg config) (workloadPlan, error) {
	switch cfg.workload {
	case wTPCHDirect, wTPCHServe:
		reqs := tpchRequests()
		return workloadPlan{
			warm: reqs, needServer: cfg.workload == wTPCHServe, boundary: len(reqs),
			sources: func(config) []func() request { return []func() request{cycle(reqs)} },
		}, nil
	case wSQLShort:
		return workloadPlan{
			warm: newShortStream(cfg.seed).hot, needServer: true, enter: enterShort, boundary: 1,
			sources: func(cfg config) []func() request {
				return []func() request{newShortStream(cfg.seed).next}
			},
		}, nil
	case wSQLConcurrent:
		reqs := concurrentRequests()
		return workloadPlan{
			warm: reqs, needServer: true, boundary: len(reqs),
			sources: func(cfg config) []func() request {
				var out []func() request
				for c := 0; c < cfg.clients; c++ {
					out = append(out, newRoundRobin(cfg.seed+int64(c), reqs).next)
				}
				return out
			},
		}, nil
	}
	return workloadPlan{}, fmt.Errorf("unknown workload %q", cfg.workload)
}

// enterShort is the process state of sql-short's traffic, wherever it
// runs (the timed run, the layer pass's sections).
//
// The static verifier is on, as under voodoo-serve -verify: sql-short
// exists to load the frontend, and the verifier is part of the miss path.
//
// GOMAXPROCS is 1. One closed-loop client never has two requests in
// flight, so a second processor adds no capacity, only a hand-off: the
// generator's goroutine and the server's wake each other across two
// virtual CPUs, one of them halted, several times per request, and what a
// wake-up costs is the hypervisor's business. Measured at the default
// (README "Validation"): ten-seed spreads of 8-15% where every other
// workload has 1-4%, and the median moved 32% between two sets half an
// hour apart while tpch-direct's moved 0.1%. On one processor nothing
// halts, the request is the frontend's CPU work, and a frontend change is
// visible.
func enterShort() (leave func()) {
	v, procs := verify.SetEnabled(true), runtime.GOMAXPROCS(1)
	return func() { verify.SetEnabled(v); runtime.GOMAXPROCS(procs) }
}

// windowResult is one untraced window of a workload's own traffic.
type windowResult struct {
	samples []sample
	start   time.Time
	wall    time.Duration
	// unit is the requests of one sweep: every class once per client.
	unit    int
	clients int
}

// runWindow drives the workload's own traffic, closed loop and with every
// benchmark span off, for d.
func runWindow(w *world, p workloadPlan, d time.Duration) (windowResult, error) {
	sources := p.sources(w.cfg)
	res := windowResult{start: time.Now(), unit: p.boundary * len(sources), clients: len(sources)}
	stop := func(n int) bool { return n%p.boundary == 0 && time.Since(res.start) >= d }
	if p.needServer {
		res.samples = flatten(window(w.srv, w.gate, sources, stop, nil))
	} else {
		next := sources[0]
		for n := 0; !stop(n); n++ {
			r := next()
			d, err := runDirect(w.eng, w.gate, r)
			if err != nil {
				return res, err
			}
			res.samples = append(res.samples, sample{class: r.class, latency: d, start: time.Now().Add(-d)})
		}
	}
	res.wall = time.Since(res.start)
	return res, nil
}

func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.latency)
	}
	return out
}

// timedRun is the measured window of --trace 0: the workload's own
// traffic for cfg.seconds, then the end-to-end latencies. Both are built
// on one number per class, its steady latency.
//
// With one caller that is the class's floor, its fastest request of the
// window. The reference box shares a host, and what its neighbours do
// arrives here as time added to some requests — never taken away — in
// bursts whose share of a run changes from one run to the next. A class's
// median moves with the neighbours (ten runs of one commit spread 20-30%,
// README "Validation"), and so does any quantile the bursts reach; the
// fastest request is the program's own cost and repeats to 1-9%. What a
// floor cannot see is a cost only some requests of a class pay (a
// collection, a lock): the layer pass's latency_p50_ms, latency_p95_ms and
// throughput_qps are there for that, read on a quiet host.
//
// With several callers it is the class's median. There the other callers'
// queries are part of a request's time, and the floor is the request that
// ran while they were idle or descheduled: contention removed, the one
// thing such a workload measures (beside a bursty CPU hog the floors moved
// by 11% and the medians by 3%). The median holds there because every
// processor is busy throughout.
func timedRun(w *world, p workloadPlan, rep *report) error {
	runtime.GC()
	win, err := runWindow(w, p, time.Duration(w.cfg.seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	w.gate.verifyFresh()

	q := 0.0
	if win.clients > 1 {
		q = 0.5
	}
	byClass := samplesByClass(win.samples)
	steady := classQuantiles(byClass, q)
	rep.emit("latency_geomean_ms", geomean(values(steady)))
	// The request-weighted mean is the time-weighted view (Q7 counts for
	// more than Q6); clients divided by it is the closed loop's rate when
	// every request takes its class's steady latency.
	var total float64
	for class, ms := range steady {
		total += ms * float64(len(byClass[class]))
	}
	rep.emit("latency_mean_ms", total/float64(len(win.samples)))
	return nil
}

func samplesByClass(samples []sample) map[string][]float64 {
	byClass := map[string][]float64{}
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], ms(s.latency))
	}
	return byClass
}

// ownShare is the share of --seconds the layer pass spends on the selected
// workload's own traffic. It gives tpch-serve, the slowest sweep, the 15
// sweeps (210 samples) a p95 needs when --seconds is run_seconds.
const ownShare = 0.30

// ownWindow opens the layer pass: the selected workload driven the way the
// timed run drives it, for a shorter window, reporting what the timed run
// does not — the median, the tail and the rate as a caller meets them on
// this host, neighbours included (too unsteady between runs to carry a
// bound, see spec.go), and the window's cost to the Go runtime per
// operation.
func ownWindow(w *world, p workloadPlan, rep *report) error {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	win, err := runWindow(w, p, time.Duration(ownShare*w.cfg.seconds*float64(time.Second)))
	runtime.ReadMemStats(&b)
	if err != nil {
		return err
	}
	all := latenciesMS(win.samples)
	if len(all) < p95MinSamples {
		fmt.Fprintf(os.Stderr, "benchmark: only %d samples; latency_p95_ms has fewer than ten beyond it\n", len(all))
	}
	rep.put(metric{Name: "latency_p50_ms", Value: median(sweepMedians(win.samples, win.unit)),
		Q1: quantile(all, 0.25), Q3: quantile(all, 0.75), N: len(all)})
	rep.emitQ("latency_p95_ms", all, 0.95)
	rep.emit("latency_geomean_p50_ms", geomean(values(classQuantiles(samplesByClass(win.samples), 0.5))))
	ops := float64(len(all))
	rep.emit("throughput_qps", ops/win.wall.Seconds())
	rep.emit("allocs_per_op", float64(b.Mallocs-a.Mallocs)/ops)
	rep.emit("runtime.gc_cycles_per_100ops", 100*float64(b.NumGC-a.NumGC)/ops)
	rep.emit("runtime.bytes_per_op", float64(b.TotalAlloc-a.TotalAlloc)/ops)
	return nil
}

// sweepMedians cuts the samples, in completion order, into sweeps of unit
// requests — every class once per client — and returns each sweep's median
// latency. latency_p50_ms is the median of those. Where the workload has
// no sweep (unit 1) that is the plain sample median; on a round-robin of a
// few classes with disjoint latency ranges it is what the plain median is
// not: stable. There the pooled median falls in the gap between two
// classes, where the slowest sample one class ever had and the fastest of
// the next set it; a sweep's median is the midpoint of two ordinary
// samples.
func sweepMedians(samples []sample, unit int) []float64 {
	byDone := append([]sample(nil), samples...)
	sort.SliceStable(byDone, func(i, j int) bool {
		return byDone[i].start.Add(byDone[i].latency).Before(byDone[j].start.Add(byDone[j].latency))
	})
	var out, sweep []float64
	for _, s := range byDone {
		sweep = append(sweep, s.latency.Seconds()*1e3)
		if len(sweep) == unit {
			out = append(out, median(sweep))
			sweep = sweep[:0]
		}
	}
	return out
}
