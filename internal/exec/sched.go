// Morsel-driven fragment scheduling.
//
// The paper makes the *degree* of parallelism declarative — extent × intent
// — but how those work items map onto OS threads is the executor's
// business. This file is that mapping: morsel-driven scheduling (à la
// HyPer's morsel-driven parallelism) over a process-wide persistent worker
// pool whose workers park when idle. A fragment is cut into contiguous
// ranges of work items — morsels — sized by the work the fragment's control
// vectors declared (cut, below), published as a job, and the ranges are
// claimed from an atomic ticket counter by the submitting goroutine and by
// whichever pool workers a free core lets run. Help is elastic: a range
// nobody else claims is simply run by the submitter, fast participants
// absorb skew by claiming more ranges, and concurrent queries share one pool
// instead of each spawning their own workers.
//
// Determinism: a fragment's work items write disjoint output slots (that is
// the algebra's data-parallel contract — folds combine *within* a work item
// along the intent axis, never across work items), so results are
// bit-identical for every cut and claim order. The only cross-range
// combining is of measurement partials (FragStats), which are additive; a
// counted run, whose device-model classifier keeps per-participant state,
// is never cut by the rule.
//
// Lifecycle: the pool starts lazily at the first cut fragment and is
// sized by demand up to GOMAXPROCS-sized jobs (an explicit Par.Workers
// above GOMAXPROCS grows it, preserving the old "up to N goroutines"
// contract that sleep-bound tests rely on). QuiesceScheduler parks nothing
// — it stops every pool worker and waits for them to exit, which is what a
// draining daemon calls so the process leaves no goroutines behind; the
// next cut fragment restarts the pool transparently.
package exec

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"voodoo/internal/faultinject"
	"voodoo/internal/kernel"
	"voodoo/internal/metrics"
)

// Par are the per-run parallelism knobs of the executor.
type Par struct {
	// Workers caps the goroutines executing one fragment, the submitting
	// goroutine included (0 = GOMAXPROCS). Values above GOMAXPROCS grow
	// the shared pool, so up to Workers goroutines can run one fragment.
	Workers int
	// Morsel, when positive, overrides the cut rule with ranges of exactly
	// that many work items. Results are bit-identical for every value; it
	// exists for the sweeps that prove so.
	Morsel int
	// NoSpecialize runs every fragment's batch program in element order —
	// one work item per batch, one iteration per tile, each sequence in
	// program order — instead of in tiles (the compiled-interp engine).
	// Results are bit-identical either way.
	NoSpecialize bool
}

// The cut rule's constants, all in units the fragment declares.
const (
	// cutFloor is the work — work items × (iterations + scratch slots
	// flushed) — below which a fragment runs inline. A parked pool worker's
	// first claim lands ~170 µs after publication on the reference VM (mean
	// over a TPC-H sweep: the second vCPU has to be woken), and a unit of
	// work costs 5–60 ns here, so a fragment much smaller than this is
	// nearly done by the time help arrives. 8192–32768 measured alike on
	// TPC-H; the high end keeps small queries from paying for wake-ups.
	cutFloor = 32768
	// cutPerParticipant is how many ranges each participant gets when the
	// fragment has work items to spare, so that a helper arriving late, or
	// a range costlier than its neighbours, shifts ranges between
	// participants instead of leaving one waiting on the other. On uniform
	// TPC-H 1, 2, 4 and 8 measure alike; a filter whose matches sit in the
	// first fifth of lineitem ran 1.18 ms at 1 and 0.97 ms at 4.
	cutPerParticipant = 4
	// cutMinItems is the narrowest range worth more than one per
	// participant. The batch tier dispatches a loop's carried slice once
	// per iteration over the work items of the range it was handed, so
	// narrow ranges multiply that dispatch: on one participant Q1's
	// 64 × 941 grouped fold ran 9.0 ms whole, 8.1 ms as 32 + 32 and 35.8 ms
	// as 64 one-lane ranges, Q20's 7 × 8602 one 4.5, 4.6 (4 + 3) and 6.6 ms
	// (seven). A fragment with fewer work items than that per participant
	// is cut once per participant and no further — and never below
	// cutMinRange work items a range: Q11's 3 × 2667 fold ran 0.35 ms whole
	// and 0.40 ms as 2 + 1 on two cores (0.62 ms when no helper came).
	cutMinItems = 64
	cutMinRange = 2
)

// Verdicts of the cut rule for a fragment that ran as one range although
// Workers allowed more (FragStats.Uncut).
const (
	uncutExtent1   = "extent-1"        // a single work item: nothing to cut
	uncutOverride  = "morsel-override" // Par.Morsel covers the whole extent
	uncutCounted   = "counted"         // device-model counters keep per-participant state
	uncutScatter   = "scatter"         // store positions are data: nothing the executor sees keeps them apart
	uncutSmall     = "small"           // less work than cutFloor
	uncutFewItems  = "few-items"       // two or three work items: a range of one pays the per-iteration dispatch alone
	uncutSaturated = "saturated"       // every participant slot already runs a fragment
)

// cut is the one rule that decides how a fragment run is split: the width,
// in work items, of the contiguous ranges participants claim and how many
// participants (the submitter included) may claim them, or width 0 and the
// verdict when the fragment runs as one range on its submitter. It reads
// only what the executor can observe: the fragment's shape, the knobs in
// par, whether the run is counted, and busy — the goroutines executing
// fragment work right now, this submitter included.
func cut(f *kernel.Fragment, par Par, count bool, busy int) (width, parts int, verdict string) {
	workers := par.workers()
	switch {
	case workers == 1:
		return 0, 1, ""
	case f.Extent <= 1:
		return 0, 1, uncutExtent1
	case f.Prov.Kind == "scatter":
		// What makes every other cut safe — work items write disjoint
		// slots — holds for a materialized scatter only if its positions
		// are distinct, and those are data. The frontend vouches for join
		// builds it could not disprove (rel.BuildKeyError) and a semi join's
		// build repeats keys by design; on one participant a repeat is a
		// deterministic last-writer-wins, never a race. Not even Par.Morsel
		// cuts one: the knob sizes ranges, it does not vouch.
		return 0, 1, uncutScatter
	case par.Morsel > 0:
		if f.Extent <= par.Morsel {
			return 0, 1, uncutOverride
		}
		return par.Morsel, workers, ""
	case count:
		// A counted run measures a device model, not this machine, and its
		// Near/Rand classification depends on which accesses one
		// participant sees in sequence.
		return 0, 1, uncutCounted
	case fragWork(f) < cutFloor:
		return 0, 1, uncutSmall
	case f.Extent < 2*cutMinRange:
		return 0, 1, uncutFewItems
	}
	// One participant per free slot, the submitter's own included.
	parts = workers - (busy - 1)
	if parts < 2 {
		return 0, 1, uncutSaturated
	}
	ranges := min(max(f.Extent/cutMinItems, parts), parts*cutPerParticipant, f.Extent/cutMinRange)
	return (f.Extent + ranges - 1) / ranges, parts, ""
}

// fragWork is the work a fragment's control vectors declare: per work item,
// the iterations of its loops plus the scratch slots its post-loop body
// flushes.
func fragWork(f *kernel.Fragment) int {
	per := 0
	for _, l := range f.Loops {
		if l.Bound > 0 {
			per += l.Bound
		} else {
			per += f.Intent
		}
	}
	if len(f.PostLoopBody) > 0 {
		per += f.Locals
	}
	return f.Extent * max(per, 1)
}

// workers resolves the zero Workers.
func (p Par) workers() int {
	if p.Workers <= 0 {
		return gomaxprocs()
	}
	return p.Workers
}

// Scheduler observability: morsel throughput, pool-saturation wait, and a
// per-fragment imbalance histogram (1.0 = perfectly balanced; the bucket
// bounds are ratios of the busiest participant's morsel count to an even
// share). All three are cheap: one atomic add per morsel, one clock read
// per helper attach, one histogram observation per parallel fragment.
var (
	morselsTotal = metrics.NewCounter("voodoo_morsels_total",
		"Morsels claimed and executed by the shared worker pool.")
	morselWaitNS = metrics.NewCounter("voodoo_morsel_wait_ns",
		"Cumulative nanoseconds between a fragment's publication and each pool worker's first morsel claim on it — a pool saturation signal.")
	fragImbalance = metrics.NewHistogram("voodoo_fragment_imbalance",
		"Per parallel fragment: busiest participant's morsel count over an even share (1 = balanced).",
		[]float64{1, 1.1, 1.25, 1.5, 2, 3, 5, 8})
)

// sched is the process-wide scheduler instance.
var sched = newScheduler()

// scheduler is the persistent worker pool plus the queue of published jobs.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	jobs    []*job // published jobs that may still have unclaimed morsels
	workers int    // pool goroutines alive (serving or parked)
	idle    int    // pool goroutines parked on cond
	active  int    // jobs published and not yet withdrawn
	quiesce bool   // workers exit instead of parking; no helpers attach
	// busy counts the goroutines executing fragment work right now:
	// submitters inside RunFragment plus pool workers attached to a job. It
	// is what the cut rule reads to tell a free core from a taken one.
	busy atomic.Int64
}

func newScheduler() *scheduler {
	s := &scheduler{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// SchedStats is a point-in-time snapshot of the shared worker pool, for
// goroutine accounting (the chaos harness asserts Workers == 0 after a
// quiesced drain and ActiveJobs == 0 and Busy == 0 after any drain).
type SchedStats struct {
	Workers    int   // pool goroutines alive (parked or serving)
	Idle       int   // pool goroutines parked waiting for work
	ActiveJobs int   // fragments currently published to the pool
	Busy       int   // goroutines executing fragment work: what the cut rule counts as taken slots
	Morsels    int64 // morsels executed through the pool since process start
}

// SchedulerStats snapshots the shared pool.
func SchedulerStats() SchedStats {
	sched.mu.Lock()
	defer sched.mu.Unlock()
	return SchedStats{
		Workers:    sched.workers,
		Idle:       sched.idle,
		ActiveJobs: sched.active,
		Busy:       int(sched.busy.Load()),
		Morsels:    morselsTotal.Value(),
	}
}

// QuiesceScheduler stops every pool worker and waits for them to exit.
// In-flight fragments finish correctly — their submitting goroutines keep
// claiming morsels — they just lose pool help for the moment. The pool
// restarts lazily at the next parallel fragment, so quiescing is safe at
// any time; a draining daemon calls it last so the process exits without
// leaked scheduler goroutines.
func QuiesceScheduler() {
	s := sched
	s.mu.Lock()
	s.quiesce = true
	s.cond.Broadcast()
	for s.workers > 0 {
		s.cond.Wait()
	}
	s.quiesce = false
	s.mu.Unlock()
}

func init() {
	metrics.NewGaugeFunc("voodoo_sched_workers",
		"Worker goroutines in the shared morsel pool (parked or serving).",
		func() float64 { return float64(SchedulerStats().Workers) })
	metrics.NewGaugeFunc("voodoo_sched_active_jobs",
		"Fragments currently published to the shared morsel pool.",
		func() float64 { return float64(SchedulerStats().ActiveJobs) })
}

// job is one cut fragment published to the pool: an atomic ticket counter
// over its ceil(extent/width) ranges, claimed by the submitting goroutine
// and up to maxHelpers pool workers.
type job struct {
	f     *kernel.Fragment
	env   *Env
	count bool
	ctx   context.Context
	// width is the range width in work items; range m is work items
	// [m·width, min((m+1)·width, extent)).
	width int
	// batch is the fragment's batch program and elem its geometry; every
	// participant (submitter and helpers) runs the same code.
	batch *batchProg
	elem  bool
	// nMorsels is the ticket space; next is the claim counter.
	nMorsels int64
	next     atomic.Int64
	// failed is the lowest range that failed, nMorsels while none has.
	// Ranges are claimed in ascending order, so once it is set no claim is
	// handed out, and running workers above it bail at their next
	// checkpoint while the ones below it finish: a lower range may still
	// hold an earlier fault.
	failed     atomic.Int64
	published  time.Time
	maxHelpers int
	helpers    int            // pool workers ever attached; guarded by sched.mu
	wg         sync.WaitGroup // attached helpers still running

	// What participants leave behind, under mu: the lowest failed range's
	// error, their merged measurement partials (additive, so the order
	// they finish in does not show), how many of them ran a range and the
	// most ranges any one ran.
	mu      sync.Mutex
	err     error
	stats   FragStats
	parts   int
	busiest int
}

// claim hands out the next morsel index, or -1 when the job is exhausted
// or a range has failed. The morsel-claim boundary is a fault-injection
// point.
func (j *job) claim() int64 {
	if j.failed.Load() < j.nMorsels {
		return -1
	}
	t := j.next.Add(1) - 1
	if t >= j.nMorsels {
		return -1
	}
	morselsTotal.Inc()
	return t
}

// fail records that range m failed with err. The lowest failed range's
// error is the job's, whichever participant finishes first: each range
// reports its own first fault in element order, so the job reports the
// fragment's. An abort (errAborted) sits above a failure already recorded
// and is never surfaced.
func (j *job) fail(m int64, err error) {
	if err == errAborted {
		return
	}
	j.mu.Lock()
	if m < j.failed.Load() {
		j.err = err
		j.failed.Store(m)
	}
	j.mu.Unlock()
}

// runMorsels is the claim loop every participant runs: claim a ticket,
// execute its work-item range under panic isolation, repeat. The worker w
// accumulates stats across all morsels it executes and merges them into
// the job at the end.
func (j *job) runMorsels(w *worker, isHelper bool) {
	morsels, first := 0, int64(-1)
	for {
		m := j.claim()
		if m < 0 {
			break
		}
		if morsels == 0 {
			first = m
			if isHelper {
				morselWaitNS.Add(time.Since(j.published).Nanoseconds())
			}
		}
		morsels++
		lo := int(m) * j.width
		hi := min(lo+j.width, j.f.Extent)
		w.rng = m
		err := protect(j.f.Name, func() error {
			faultinject.MorselClaim(j.f.Name, int(m))
			return w.run(lo, hi)
		})
		if err != nil {
			j.fail(m, err)
			break
		}
	}
	if morsels > 0 {
		j.mu.Lock()
		j.stats.merge(&w.stats)
		if first == 0 {
			// The tile a record shows is the first tile of range 0,
			// whoever finishes first.
			j.stats.TileLanes, j.stats.TileIters = w.stats.TileLanes, w.stats.TileIters
		}
		j.parts++
		j.busiest = max(j.busiest, morsels)
		j.mu.Unlock()
	}
	w.release()
}

// publish enqueues j and makes sure enough pool workers exist to help.
// The pool grows on demand and never shrinks outside QuiesceScheduler;
// parked workers cost nothing but a goroutine's stack.
func (s *scheduler) publish(j *job) {
	s.mu.Lock()
	j.published = time.Now()
	s.jobs = append(s.jobs, j)
	s.active++
	if !s.quiesce {
		for s.workers < j.maxHelpers {
			s.workers++
			go s.workerLoop()
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// withdraw removes j from the queue so no further helper attaches; after
// it returns, j.wg.Wait() covers every helper that will ever touch j.
func (s *scheduler) withdraw(j *job) {
	s.mu.Lock()
	for i, q := range s.jobs {
		if q == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			break
		}
	}
	s.active--
	s.mu.Unlock()
}

// pick selects a published job that still has unclaimed morsels and helper
// capacity. Called with s.mu held.
func (s *scheduler) pick() *job {
	for _, j := range s.jobs {
		if j.helpers < j.maxHelpers && j.failed.Load() == j.nMorsels && j.next.Load() < j.nMorsels {
			return j
		}
	}
	return nil
}

// workerLoop is one pool goroutine: serve jobs while there are any, park
// when there are none, exit when the scheduler quiesces.
func (s *scheduler) workerLoop() {
	s.mu.Lock()
	//lint:ignore checkpointloop dispatch loop: it parks on the condvar and exits on quiesce; morsel cancellation is the claim loop inside runMorsels
	for {
		if !s.quiesce {
			if j := s.pick(); j != nil {
				j.helpers++
				j.wg.Add(1)
				s.mu.Unlock()
				s.busy.Add(1)
				w := newWorker(j.ctx, j.f, j.env, j.batch, j.elem, j.count, &j.failed)
				// CPU profiles served from /debug/pprof attribute helper
				// samples to the fragment being executed.
				pprof.Do(j.ctx, pprof.Labels("fragment", j.f.Name), func(context.Context) {
					j.runMorsels(w, true)
				})
				s.busy.Add(-1)
				j.wg.Done()
				s.mu.Lock()
				continue
			}
		}
		if s.quiesce {
			s.workers--
			s.cond.Broadcast() // wake the QuiesceScheduler waiter
			s.mu.Unlock()
			return
		}
		s.idle++
		s.cond.Wait()
		s.idle--
	}
}

// runMorselParallel executes one fragment cut into ranges of width work
// items through the shared pool: the submitting goroutine claims ranges
// itself (so progress never depends on pool availability) while up to
// parts-1 pool workers join it. Caller guarantees parts > 1 and
// width < f.Extent.
func runMorselParallel(ctx context.Context, f *kernel.Fragment, env *Env, parts, width int, batch *batchProg, elem bool, fs *FragStats, count bool) error {
	nMorsels := int64((f.Extent + width - 1) / width)
	j := &job{
		f: f, env: env, count: count, ctx: ctx,
		width: width, nMorsels: nMorsels, batch: batch, elem: elem,
	}
	// The submitter is one of the participants; helpers beyond the morsel
	// count could never claim anything.
	j.maxHelpers = min(parts-1, int(nMorsels)-1)
	j.failed.Store(nMorsels)
	sched.publish(j)

	w := newWorker(ctx, f, env, batch, elem, count, &j.failed)
	// Label the submitter's share too, so profiles attribute parallel
	// fragment execution per fragment regardless of who claims the morsel.
	pprof.Do(ctx, pprof.Labels("fragment", f.Name), func(context.Context) {
		j.runMorsels(w, false)
	})

	sched.withdraw(j)
	j.wg.Wait()

	imb := 1.0
	if j.parts > 0 {
		imb = float64(j.busiest) * float64(j.parts) / float64(nMorsels)
	}
	fragImbalance.Observe(imb)
	if fs != nil {
		fs.merge(&j.stats)
		fs.Workers = j.parts
		fs.Morsels = int(nMorsels)
		fs.Imbalance = imb
	}
	return j.err
}
