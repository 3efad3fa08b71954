// Package chaos is an in-process fault-injection harness for the query
// daemon. Storm stands up a real serve.Server over HTTP, captures golden
// results for a fixed query mix, then hammers the daemon with concurrent
// clients while faultinject randomly fails allocations, panics inside
// kernel loops, and injects slowness — and the clients themselves
// randomly cancel requests and disconnect mid-read, while a background
// goroutine hot-swaps the catalog. When the storm subsides the daemon is
// drained and the report carries the serving invariants:
//
//   - every 200 response produced during the storm is bit-identical
//     (cols + rows) to its pre-storm golden — faults may fail a query,
//     they must never corrupt one;
//   - no query is stuck in the registry after the drain;
//   - no pooled arena leaked across the storm;
//   - no morsel-pool worker goroutine or published job survives the
//     post-drain scheduler quiesce;
//   - no fragment of the storm interprets: fault hooks run on the batch
//     tier the daemon serves, so every invariant above holds for it;
//   - the JSONL event log loses nothing to the drain: every event it
//     accepted during the storm is written by the time Close returns,
//     with backpressure absorbed by the drop counter, never by blocking.
//
// Hooks are process-global, so callers running under `go test` should
// hold the faultinject test lock (faultinject.With with empty Hooks)
// before invoking Storm; Storm installs and clears its own hooks via Set.
package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"voodoo/internal/compile"
	"voodoo/internal/exec"
	"voodoo/internal/faultinject"
	"voodoo/internal/metrics"
	"voodoo/internal/serve"
	"voodoo/internal/storage"
	"voodoo/internal/telemetry"
)

// Config shapes one storm.
type Config struct {
	// Cat and ReloadCat are two catalogs holding identical data (e.g. two
	// tpch.Generate calls with the same seed). The reloader swaps between
	// them so results stay comparable to the goldens across reloads.
	// ReloadCat may be nil to disable reloads.
	Cat, ReloadCat *storage.Catalog

	Duration time.Duration // storm length (default 2s)
	Clients  int           // concurrent client goroutines (default 12)
	Seed     int64         // deterministic client/fault schedules

	// Fault probabilities in percent, applied per injection site.
	AllocFailPct int // chance an allocation is refused (default 3)
	PanicPct     int // chance a kernel loop panics (default 1)
	SlowPct      int // chance a kernel loop stalls briefly (default 5)

	// Client misbehavior probabilities in percent, per request.
	CancelPct     int // request sent with an already-ticking cancel (default 15)
	DisconnectPct int // connection torn down mid-response (default 10)

	ReloadEvery time.Duration // catalog swap cadence (default 200ms)

	Queries []string // query mix (default: a small TPC-H lineitem mix)
}

// Report is what a storm leaves behind.
type Report struct {
	Requests    int // total requests issued
	OK          int // 200 responses (each compared against its golden)
	Failed      int // non-200 responses (shed, injected faults, timeouts)
	ClientAbort int // requests the client itself cancelled or tore down
	Reloads     int // catalog swaps performed mid-storm

	Mismatches   []string // golden violations: query + diff summary
	StuckQueries int      // registry entries alive after the drain
	LeakedArenas int64    // pooled arenas still live after the drain
	// LeakedWorkers counts morsel-pool goroutines still alive after the
	// post-drain scheduler quiesce; StuckJobs counts fragments still
	// published to the pool; BusySlots counts participant slots the cut
	// rule would still see as taken (a leak there would leave every later
	// fragment "saturated"). All three must be zero after a clean drain.
	// Morsels is how many ranges the storm's queries ran through the pool:
	// zero would mean nothing ever split and the gate held vacuously.
	LeakedWorkers int
	StuckJobs     int
	BusySlots     int
	Morsels       int64
	// Interpreted counts fragment executions that ran in element order
	// during the storm. The daemon never asks for it, so it must be zero:
	// otherwise the storm tested a geometry no query runs.
	Interpreted int64

	// Event-log accounting after the drain. Accepted events must all be
	// written once Close returns (flush-on-quiesce); LostEvents is the
	// difference and must be zero. EventsDropped counts buffer
	// backpressure — a tolerated degradation, not a violation.
	EventsAccepted int64
	EventsWritten  int64
	EventsDropped  int64
	LostEvents     int64
}

// Err flattens invariant violations into one error, nil when the storm
// held every invariant.
func (r *Report) Err() error {
	var probs []string
	if n := len(r.Mismatches); n > 0 {
		probs = append(probs, fmt.Sprintf("%d corrupted results (first: %s)", n, r.Mismatches[0]))
	}
	if r.StuckQueries > 0 {
		probs = append(probs, fmt.Sprintf("%d queries stuck in the registry", r.StuckQueries))
	}
	if r.LeakedArenas > 0 {
		probs = append(probs, fmt.Sprintf("%d leaked arenas", r.LeakedArenas))
	}
	if r.LeakedWorkers > 0 {
		probs = append(probs, fmt.Sprintf("%d leaked scheduler workers", r.LeakedWorkers))
	}
	if r.StuckJobs > 0 {
		probs = append(probs, fmt.Sprintf("%d jobs stuck in the scheduler", r.StuckJobs))
	}
	if r.BusySlots > 0 {
		probs = append(probs, fmt.Sprintf("%d scheduler slots still counted busy", r.BusySlots))
	}
	if r.Interpreted > 0 {
		probs = append(probs, fmt.Sprintf("%d fragment executions interpreted", r.Interpreted))
	}
	if r.LostEvents > 0 {
		probs = append(probs, fmt.Sprintf("%d accepted events lost by the drain", r.LostEvents))
	}
	if len(probs) == 0 {
		return nil
	}
	return fmt.Errorf("chaos: %s", strings.Join(probs, "; "))
}

var defaultQueries = []string{
	`SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS q
	   FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`,
	`SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem
	   WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
	     AND l_discount BETWEEN 0.0499 AND 0.0701 AND l_quantity < 24`,
	`SELECT COUNT(*) AS n FROM lineitem WHERE l_shipmode IN ('AIR', 'RAIL')`,
	`SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority`,
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Duration <= 0 {
		out.Duration = 2 * time.Second
	}
	if out.Clients <= 0 {
		out.Clients = 12
	}
	if out.AllocFailPct == 0 {
		out.AllocFailPct = 3
	}
	if out.PanicPct == 0 {
		out.PanicPct = 1
	}
	if out.SlowPct == 0 {
		out.SlowPct = 5
	}
	if out.CancelPct == 0 {
		out.CancelPct = 15
	}
	if out.DisconnectPct == 0 {
		out.DisconnectPct = 10
	}
	if out.ReloadEvery <= 0 {
		out.ReloadEvery = 200 * time.Millisecond
	}
	if len(out.Queries) == 0 {
		out.Queries = defaultQueries
	}
	return out
}

// lockedRand is a mutex-guarded rand for the process-global fault hooks,
// which fire from many worker goroutines at once.
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func (l *lockedRand) pct() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Intn(100)
}

// golden is the comparable slice of a query response: columns and rows,
// stats excluded (timings vary run to run).
type golden struct {
	Cols []string         `json:"cols"`
	Rows []map[string]any `json:"rows"`
}

func canonical(body []byte) (string, error) {
	var g golden
	if err := json.Unmarshal(body, &g); err != nil {
		return "", err
	}
	b, err := json.Marshal(g)
	return string(b), err
}

// Storm runs one chaos storm and reports the invariants. The error return
// covers harness failures (golden capture, drain); invariant violations
// live in the Report (see Report.Err).
func Storm(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Cat == nil {
		return nil, fmt.Errorf("chaos: Config.Cat is required")
	}

	// The storm gets its own metrics registry (repeated storms would
	// otherwise pile func metrics onto metrics.Default) and a
	// retain-everything event log, so the drain can assert the sink's
	// no-loss contract under real concurrent load.
	reg := metrics.NewRegistry()
	events := telemetry.NewEventLog(telemetry.EventLogConfig{
		W: io.Discard, SampleRate: 1, Registry: reg,
	})
	s := serve.New(serve.Config{
		Cat: cfg.Cat,
		// Four workers per fragment regardless of GOMAXPROCS, so the storm
		// exercises the shared morsel pool (publish/claim/abort under
		// faults) even on single-CPU CI runners.
		Opt:           compile.Options{Workers: 4},
		MaxConcurrent: 8,
		Timeout:       10 * time.Second,
		Registry:      reg,
		Events:        events,
	})
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()

	morsels0 := exec.SchedulerStats().Morsels
	interp := metrics.Default.CounterVec("voodoo_fragments_specialized_total", "", "path").With("interp")
	interp0 := interp.Value()

	// Golden capture: every query once, faults off.
	goldens := make([]string, len(cfg.Queries))
	for i, q := range cfg.Queries {
		resp, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader(q))
		if err != nil {
			return nil, fmt.Errorf("chaos: golden capture: %w", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			return nil, fmt.Errorf("chaos: golden capture of query %d: status %d: %s", i, resp.StatusCode, body)
		}
		if goldens[i], err = canonical(body); err != nil {
			return nil, fmt.Errorf("chaos: golden capture of query %d: %w", i, err)
		}
	}

	// The fault hooks. Installed for the storm only; the drain below runs
	// fault-free so in-flight work can unwind.
	hookRand := &lockedRand{r: rand.New(rand.NewSource(cfg.Seed))}
	faultinject.Set(faultinject.Hooks{
		Alloc: func(bytes int64) error {
			if hookRand.pct() < cfg.AllocFailPct {
				return fmt.Errorf("chaos: injected allocation failure (%d bytes)", bytes)
			}
			return nil
		},
		Item: func(frag string, gid int) {
			p := hookRand.pct()
			if p < cfg.PanicPct {
				panic(fmt.Sprintf("chaos: injected panic in %s at item %d", frag, gid))
			}
			if p < cfg.PanicPct+cfg.SlowPct {
				time.Sleep(200 * time.Microsecond)
			}
		},
	})

	var (
		rep   Report
		repMu sync.Mutex
		wg    sync.WaitGroup
	)
	stop := make(chan struct{})
	time.AfterFunc(cfg.Duration, func() { close(stop) })

	// Catalog reloader: swap between the two identical-data catalogs so
	// every golden stays valid across reloads.
	if cfg.ReloadCat != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cats := [2]*storage.Catalog{cfg.ReloadCat, cfg.Cat}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(cfg.ReloadEvery):
					s.SwapCatalog(cats[i%2])
					repMu.Lock()
					rep.Reloads++
					repMu.Unlock()
				}
			}
		}()
	}

	client := &http.Client{}
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id) + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				qi := rng.Intn(len(cfg.Queries))
				ctx, cancel := context.WithCancel(context.Background())
				aborting := false
				switch p := rng.Intn(100); {
				case p < cfg.CancelPct:
					// Cancel somewhere between "before admission" and
					// "mid-execution".
					aborting = true
					time.AfterFunc(time.Duration(rng.Intn(3000))*time.Microsecond, cancel)
				case p < cfg.CancelPct+cfg.DisconnectPct:
					// Disconnect: same cancellation, but after the request
					// has very likely been written — tears the connection
					// down under the handler.
					aborting = true
					time.AfterFunc(time.Duration(500+rng.Intn(5000))*time.Microsecond, cancel)
				}

				req, _ := http.NewRequestWithContext(ctx, "POST", srv.URL+"/query", strings.NewReader(cfg.Queries[qi]))
				resp, err := client.Do(req)
				var outcome func(r *Report)
				if err != nil {
					outcome = func(r *Report) { r.ClientAbort++ }
				} else {
					body, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					switch {
					case rerr != nil:
						outcome = func(r *Report) { r.ClientAbort++ }
					case resp.StatusCode != 200:
						outcome = func(r *Report) { r.Failed++ }
					default:
						got, cerr := canonical(body)
						if cerr != nil || got != goldens[qi] {
							// A mid-read cancel can truncate a 200 body;
							// only a complete, parseable body that differs
							// is corruption.
							if cerr != nil && aborting {
								outcome = func(r *Report) { r.ClientAbort++ }
							} else {
								m := fmt.Sprintf("query %d: got %.120s want %.120s", qi, got, goldens[qi])
								outcome = func(r *Report) { r.Mismatches = append(r.Mismatches, m) }
							}
						} else {
							outcome = func(r *Report) { r.OK++ }
						}
					}
				}
				cancel()
				repMu.Lock()
				rep.Requests++
				outcome(&rep)
				repMu.Unlock()
			}
		}(c)
	}

	wg.Wait()
	// Faults off before the drain: whatever is still in flight finishes
	// or cancels on clean plumbing.
	faultinject.Clear()

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.StartDraining()
	if err := s.Shutdown(drainCtx); err != nil {
		return &rep, fmt.Errorf("chaos: drain: %w", err)
	}
	rep.StuckQueries = s.QueryRegistry().ActiveCount()
	rep.LeakedArenas = s.PoolStats().LiveArenas
	// The handlers have quiesced: close the event log and hold it to the
	// no-loss contract — everything accepted is on the writer.
	if err := events.Close(); err != nil {
		return &rep, fmt.Errorf("chaos: event log close: %w", err)
	}
	rep.EventsAccepted = events.Accepted()
	rep.EventsWritten = events.Written()
	rep.EventsDropped = events.Dropped()
	rep.LostEvents = rep.EventsAccepted - rep.EventsWritten
	// The drained daemon must leave the shared morsel pool empty: quiesce
	// it (as voodoo-serve does last in its SIGTERM path) and assert no
	// worker goroutine or published job survives.
	exec.QuiesceScheduler()
	sst := exec.SchedulerStats()
	rep.LeakedWorkers = sst.Workers
	rep.StuckJobs = sst.ActiveJobs
	rep.BusySlots = sst.Busy
	rep.Morsels = sst.Morsels - morsels0
	rep.Interpreted = interp.Value() - interp0
	return &rep, nil
}
