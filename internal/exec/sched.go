// Morsel-driven fragment scheduling.
//
// The paper makes the *degree* of parallelism declarative — extent × intent
// — but how those work items map onto OS threads is the executor's
// business. The original executor cut every fragment into one static chunk
// per worker and spawned fresh goroutines for each fragment, which has two
// production problems: a skewed chunk (all the expensive work items landing
// in one contiguous range) serializes the whole fragment behind one worker,
// and a daemon running thousands of fragments per second pays goroutine
// spawn/teardown per fragment while concurrent queries oversubscribe the
// machine with workers × queries goroutines.
//
// This file replaces that with morsel-driven scheduling (à la HyPer's
// morsel-driven parallelism): a process-wide persistent worker pool whose
// workers park when idle, and fragments published as jobs whose work items
// are claimed in fixed-size morsels from an atomic ticket counter. Fast
// workers absorb skew by simply claiming more morsels; concurrent queries
// share one pool instead of each spawning their own workers.
//
// Determinism: a fragment's work items write disjoint output slots (that is
// the algebra's data-parallel contract — folds combine *within* a work item
// along the intent axis, never across work items), so results are
// bit-identical for every morsel size and claim order. The only cross-
// morsel combining is of measurement partials (FragStats), which are merged
// in first-claimed-morsel order so even traces are reproducible.
//
// Lifecycle: the pool starts lazily at the first parallel fragment and is
// sized by demand up to GOMAXPROCS-sized jobs (an explicit Par.Workers
// above GOMAXPROCS grows it, preserving the old "up to N goroutines"
// contract that sleep-bound tests rely on). QuiesceScheduler parks nothing
// — it stops every pool worker and waits for them to exit, which is what a
// draining daemon calls so the process leaves no goroutines behind; the
// next parallel fragment restarts the pool transparently.
package exec

import (
	"context"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"voodoo/internal/faultinject"
	"voodoo/internal/kernel"
	"voodoo/internal/metrics"
)

// DefaultMorsel is the default morsel size in work items. Items are
// nanosecond-scale, so 16K items keeps a morsel in the tens of
// microseconds: coarse enough that the ticket-counter atomics and the
// per-morsel bookkeeping disappear in the noise, fine enough that a
// GOMAXPROCS-wide pool balances even a fragment whose cost is concentrated
// in one narrow range of work items.
const DefaultMorsel = 16384

// Par are the per-run parallelism knobs of the executor.
type Par struct {
	// Workers caps the goroutines executing one fragment, the submitting
	// goroutine included (0 = GOMAXPROCS). Values above GOMAXPROCS grow
	// the shared pool, preserving the historical Run contract.
	Workers int
	// Morsel is the scheduling granularity in work items (0 =
	// DefaultMorsel). Results are bit-identical for every value; the knob
	// trades scheduling overhead (small morsels) against skew absorption
	// (large morsels).
	Morsel int
	// NoSpecialize forces the per-element interpreter for every fragment
	// (the compiled-interp engine and the differential-test oracle).
	// Results are bit-identical either way.
	NoSpecialize bool
}

// norm resolves the zero values.
func (p Par) norm() Par {
	if p.Workers <= 0 {
		p.Workers = gomaxprocs()
	}
	if p.Morsel <= 0 {
		p.Morsel = DefaultMorsel
	}
	return p
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
}

func newScheduler() *scheduler {
	s := &scheduler{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// SchedStats is a point-in-time snapshot of the shared worker pool, for
// goroutine accounting (the chaos harness asserts Workers == 0 after a
// quiesced drain and ActiveJobs == 0 after any drain).
type SchedStats struct {
	Workers    int   // pool goroutines alive (parked or serving)
	Idle       int   // pool goroutines parked waiting for work
	ActiveJobs int   // fragments currently published to the pool
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

// job is one parallel fragment published to the pool: an atomic ticket
// counter over ceil(extent/morsel) morsels, claimed by the submitting
// goroutine and up to maxHelpers pool workers.
type job struct {
	f      *kernel.Fragment
	env    *Env
	nregs  kernel.Reg
	count  bool
	ctx    context.Context
	morsel int
	// batch is the fragment's resolved execution path (nil = interpret);
	// every participant (submitter and helpers) runs the same code.
	batch *batchProg
	// nMorsels is the ticket space; next is the claim counter.
	nMorsels int64
	next     atomic.Int64
	// stop aborts the job: claims stop being handed out and running
	// workers bail at their next checkpoint (same cadence as before).
	stop       atomic.Bool
	published  time.Time
	maxHelpers int
	helpers    int            // pool workers ever attached; guarded by sched.mu
	wg         sync.WaitGroup // attached helpers still running

	mu       sync.Mutex
	firstErr error
	parts    []partial
}

// partial is one participant's share of a job, for deterministic stats
// merging (ordered by first claimed morsel) and imbalance accounting.
type partial struct {
	first   int64 // first morsel this participant claimed
	morsels int   // morsels it executed
	stats   FragStats
}

// claim hands out the next morsel index, or -1 when the job is exhausted
// or aborted. The morsel-claim boundary is a fault-injection point.
func (j *job) claim() int64 {
	if j.stop.Load() {
		return -1
	}
	t := j.next.Add(1) - 1
	if t >= j.nMorsels {
		return -1
	}
	morselsTotal.Inc()
	return t
}

// fail aborts the job with err; the first real failure wins and sibling
// aborts (errAborted) are never surfaced.
func (j *job) fail(err error) {
	j.stop.Store(true)
	j.mu.Lock()
	if j.firstErr == nil && err != errAborted {
		j.firstErr = err
	}
	j.mu.Unlock()
}

// runMorsels is the claim loop every participant runs: claim a ticket,
// execute its work-item range under panic isolation, repeat. The worker w
// accumulates stats across all morsels it executes; the per-participant
// partial is attached to the job at the end.
func (j *job) runMorsels(w *worker, isHelper bool) {
	p := partial{first: -1}
	for {
		m := j.claim()
		if m < 0 {
			break
		}
		if p.first < 0 {
			p.first = m
			if isHelper {
				morselWaitNS.Add(time.Since(j.published).Nanoseconds())
			}
		}
		p.morsels++
		lo := int(m) * j.morsel
		hi := min(lo+j.morsel, j.f.Extent)
		err := protect(j.f.Name, func() error {
			faultinject.MorselClaim(j.f.Name, int(m))
			return w.run(lo, hi)
		})
		if err != nil {
			j.fail(err)
			break
		}
	}
	if p.morsels > 0 {
		p.stats = w.stats
		j.mu.Lock()
		j.parts = append(j.parts, p)
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
		if j.helpers < j.maxHelpers && !j.stop.Load() && j.next.Load() < j.nMorsels {
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
				w := newWorker(j.ctx, j.f, j.env, j.nregs, j.count, &j.stop, j.batch)
				// CPU profiles served from /debug/pprof attribute helper
				// samples to the fragment being executed.
				pprof.Do(j.ctx, pprof.Labels("fragment", j.f.Name), func(context.Context) {
					j.runMorsels(w, true)
				})
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

// runMorselParallel executes one non-sequential fragment through the
// shared pool: the submitting goroutine claims morsels itself (so progress
// never depends on pool availability) while up to par.Workers-1 pool
// workers join it. Caller guarantees par is normalized, par.Workers > 1
// and the fragment spans more than one morsel.
func runMorselParallel(ctx context.Context, f *kernel.Fragment, env *Env, par Par, nregs kernel.Reg, batch *batchProg, fs *FragStats, count bool) error {
	nMorsels := int64((f.Extent + par.Morsel - 1) / par.Morsel)
	j := &job{
		f: f, env: env, nregs: nregs, count: count, ctx: ctx,
		morsel: par.Morsel, nMorsels: nMorsels, batch: batch,
	}
	// The submitter occupies one worker slot; helpers beyond the morsel
	// count could never claim anything.
	j.maxHelpers = min(par.Workers-1, int(nMorsels)-1)
	if j.maxHelpers > 0 {
		sched.publish(j)
	}

	w := newWorker(ctx, f, env, nregs, count, &j.stop, batch)
	// Label the submitter's share too, so profiles attribute parallel
	// fragment execution per fragment regardless of who claims the morsel.
	pprof.Do(ctx, pprof.Labels("fragment", f.Name), func(context.Context) {
		j.runMorsels(w, false)
	})

	if j.maxHelpers > 0 {
		sched.withdraw(j)
	}
	j.wg.Wait()

	// Merge measurement partials in first-claimed-morsel order: the counts
	// are additive so any order yields the same totals, but a fixed order
	// makes traces reproducible run to run.
	j.mu.Lock()
	parts := j.parts
	j.mu.Unlock()
	sort.Slice(parts, func(a, b int) bool { return parts[a].first < parts[b].first })
	busiest := 0
	for i := range parts {
		if parts[i].morsels > busiest {
			busiest = parts[i].morsels
		}
		if fs != nil {
			fs.merge(&parts[i].stats)
		}
	}
	imb := 1.0
	if len(parts) > 0 && nMorsels > 0 {
		imb = float64(busiest) * float64(len(parts)) / float64(nMorsels)
	}
	fragImbalance.Observe(imb)
	if fs != nil {
		fs.Workers = len(parts)
		fs.Morsels = int(nMorsels)
		fs.Imbalance = imb
	}
	return j.firstErr
}
