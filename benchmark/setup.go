package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"voodoo/internal/metrics"
	"voodoo/internal/rel"
	"voodoo/internal/serve"
	"voodoo/internal/storage"
	"voodoo/internal/tpch"
	"voodoo/internal/vector"
)

// config is one invocation's inputs.
type config struct {
	workload string
	seed     int64
	seconds  float64
	sf       float64
	clients  int
	// setupFor is how long a run keeps repeating its set-up, at least
	// minSetups and at most maxSetups times; setup_s is the fastest.
	setupFor time.Duration
	// tmp is the directory the storage round trip writes under; it lies
	// inside the checkout.
	tmp string
}

// server is a query server on a loopback listener. Every server the
// benchmark starts uses a private metrics registry, so its counters start
// at zero and read without scraping.
type server struct {
	srv  *serve.Server
	reg  *metrics.Registry
	hs   *http.Server
	url  string
	done chan struct{}
}

func startServer(cfg serve.Config) (*server, error) {
	cfg.Registry = metrics.NewRegistry()
	s := &server{srv: serve.New(cfg), reg: cfg.Registry, done: make(chan struct{})}
	mux := s.srv.Mux()
	// The calibration target: the client loop's cost with no query behind
	// it (bench.http_floor_us_p50).
	mux.HandleFunc("/noop", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // calibration only
		w.WriteHeader(http.StatusOK)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: mux}
	s.url = "http://" + ln.Addr().String()
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return s, nil
}

// close drains the server and waits for its listener goroutine.
func (s *server) close() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

// counter reads a counter of the server's registry (0 if it never
// registered), optionally one child of a labelled family.
func counter(reg *metrics.Registry, name string, label ...string) float64 {
	if len(label) == 2 {
		return float64(reg.CounterVec(name, "", label[0]).With(label[1]).Value())
	}
	return float64(reg.Counter(name, "").Value())
}

// world is everything one set-up produces.
type world struct {
	cfg  config
	cat  *storage.Catalog
	gate *gate
	// eng is the in-process engine under test: voodoo-run's configuration
	// plus the buffer pool the server also uses.
	eng *rel.Engine
	// srv is the default-Config server (nil on tpch-direct).
	srv *server

	generateS, saveMBs, loadMBs, diskRatio float64
}

func (w *world) close() {
	w.srv.close()
	w.srv = nil
}

// rawBytes is the size of the catalog's column data: 8 bytes per value
// plus the dictionary strings.
func rawBytes(cat *storage.Catalog) int64 {
	var n int64
	for _, name := range cat.Tables() {
		t := cat.Table(name)
		for _, d := range t.Defs() {
			n += int64(t.Col(d.Name).Len()) * 8
			for _, s := range d.Dict {
				n += int64(len(s))
			}
		}
	}
	return n
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// setUp is the benchmark's set-up, timed as setup_s: generate TPC-H from
// the seed, round-trip it through storage (save, then load the copy every
// query runs against), compute the references, start the server where the
// workload needs one, and answer every warm statement once — which fills
// the plan cache, the buffer pool and the first-run specializations, and
// is gated against the reference like any other answer.
func setUp(cfg config, warm []request, needServer bool) (*world, time.Duration, error) {
	start := time.Now()
	w := &world{cfg: cfg}

	t0 := time.Now()
	gen := tpch.Generate(tpch.Config{SF: cfg.sf, Seed: cfg.seed})
	w.generateS = time.Since(t0).Seconds()

	dir, err := os.MkdirTemp(cfg.tmp, "catalog-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	raw := float64(rawBytes(gen))
	t0 = time.Now()
	if err := gen.Save(dir); err != nil {
		return nil, 0, err
	}
	w.saveMBs = raw / 1e6 / time.Since(t0).Seconds()
	t0 = time.Now()
	if w.cat, err = storage.Load(dir); err != nil {
		return nil, 0, err
	}
	w.loadMBs = raw / 1e6 / time.Since(t0).Seconds()
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, 0, err
	}
	w.diskRatio = float64(disk) / raw

	w.gate = newGate(w.cat)
	if err := w.gate.addReference(warm); err != nil {
		return nil, 0, err
	}
	w.eng = &rel.Engine{Cat: w.cat, Backend: rel.Compiled, Pool: vector.NewPool(0)}
	var c *client
	if needServer {
		if w.srv, err = startServer(serve.Config{Cat: w.cat}); err != nil {
			return nil, 0, err
		}
		c = newClient(w.srv.url)
		defer c.close()
	}
	for _, r := range warm {
		if c != nil {
			c.do(w.gate, r)
		} else if _, err := runDirect(w.eng, w.gate, r); err != nil {
			w.close()
			return nil, 0, err
		}
	}
	if w.gate.failed > 0 {
		w.close()
		return nil, 0, fmt.Errorf("warm-up answered wrongly: %v", w.gate.errs)
	}
	return w, time.Since(start), nil
}

const (
	minSetups = 3
	maxSetups = 20
)

// setUpRepeated sets up until cfg.setupFor has passed, at least minSetups
// times, and keeps the last world; setup_s is the fastest repetition, a
// floor like the single-caller latencies (see timedRun) — a 0.1 s set-up
// gets many repetitions, a 0.7 s one a few.
func setUpRepeated(cfg config, warm []request, needServer bool) (*world, []float64, error) {
	var w *world
	var times []float64
	begin := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(begin) < cfg.setupFor); i++ {
		if w != nil {
			w.close()
		}
		nw, d, err := setUp(cfg, warm, needServer)
		if err != nil {
			return nil, nil, err
		}
		w = nw
		times = append(times, d.Seconds())
	}
	return w, times, nil
}

// runDirect executes a TPC-H request in process and gates its answer.
func runDirect(e rel.Runner, g *gate, r request) (time.Duration, error) {
	qf, err := tpch.Query(r.num)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	res, _, err := qf(e)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("%s: %w", r.key, err)
	}
	if g != nil {
		g.checkDirect(r, res)
	}
	return d, nil
}

// tmpDir creates the scratch directory for the storage round trip.
func tmpDir(base string) (string, error) {
	dir := filepath.Join(base, "voodoo-benchmark-tmp")
	return dir, os.MkdirAll(dir, 0o755)
}
