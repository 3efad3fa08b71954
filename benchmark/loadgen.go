package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// client is one closed-loop caller: it holds exactly one keep-alive
// connection and sends its next request only after reading the previous
// response to the end.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// roundTrip sends one request and returns the status, the whole body and
// the latency a user would see: from before the request is written to
// after the last body byte is read.
func (c *client) roundTrip(r request) (int, []byte, time.Duration, error) {
	var resp *http.Response
	var err error
	t0 := time.Now()
	if r.num > 0 {
		resp, err = c.hc.Get(c.base + "/query?q=" + strconv.Itoa(r.num))
	} else {
		resp, err = c.hc.Post(c.base+"/query", "text/plain", strings.NewReader(r.sql))
	}
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(t0), err
}

// do issues r, gates the answer and returns body and latency. A transport
// error, a non-200 status (shed and refused requests included) or a wrong
// answer counts as failed in the gate.
func (c *client) do(g *gate, r request) ([]byte, time.Duration) {
	code, body, d, err := c.roundTrip(r)
	switch {
	case err != nil:
		g.failRequest(r, err)
	case code != http.StatusOK:
		g.failRequest(r, fmt.Errorf("HTTP %d: %.200s", code, body))
	default:
		g.checkServed(r, body)
	}
	return body, d
}

// noop times the client loop against the no-op handler with a body the
// size of r's.
func (c *client) noop(r request) (time.Duration, error) {
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/noop", "text/plain", strings.NewReader(r.sql))
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return time.Since(t0), err
}

// servedStats is the per-request stats block of a /query response.
type servedStats struct {
	QueueNS      int64 `json:"queue_ns"`
	PlanLookupNS int64 `json:"plan_lookup_ns"`
	CompileNS    int64 `json:"compile_ns"`
	ExecNS       int64 `json:"exec_ns"`
	Cached       bool  `json:"cached"`
}

func parseStats(body []byte) (servedStats, error) {
	var resp struct {
		Stats servedStats `json:"stats"`
	}
	err := json.Unmarshal(body, &resp)
	return resp.Stats, err
}

// sample is one completed request of a measured window.
type sample struct {
	class   string
	latency time.Duration
	// self is the generator's own time per request: the loop iteration
	// minus the round trip, i.e. drawing the request, gating the answer and
	// keeping the sample.
	self  time.Duration
	start time.Time
	// body is kept only by traced windows, which read the stats block out
	// of it once the window has closed.
	body  []byte
	stats servedStats
}

// window drives next-request sources closed-loop, one goroutine and one
// connection per source, until stop reports true (checked between
// requests). The loop is the same traced or not: with a recorder it only
// keeps each body, and the stats blocks are parsed into samples and span
// trees after the last request, so tracing costs the window nothing.
func window(srv *server, g *gate, sources []func() request, stop func(done int) bool, rec *recorder) [][]sample {
	out := make([][]sample, len(sources))
	var wg sync.WaitGroup
	for i, next := range sources {
		wg.Add(1)
		go func(i int, next func() request) {
			defer wg.Done()
			c := newClient(srv.url)
			defer c.close()
			iter := time.Now()
			for n := 0; !stop(n); n++ {
				r := next()
				start := time.Now()
				body, d := c.do(g, r)
				s := sample{class: r.class, latency: d, start: start}
				if rec != nil {
					s.body = body
				}
				now := time.Now()
				s.self, iter = now.Sub(iter)-d, now
				out[i] = append(out[i], s)
			}
		}(i, next)
	}
	wg.Wait()
	if rec != nil {
		for _, samples := range out {
			for i := range samples {
				s := &samples[i]
				if st, err := parseStats(s.body); err == nil {
					s.stats = st
					spanFromStats(rec, s.class, s.start, s.latency, st)
				}
			}
		}
	}
	return out
}

// spanFromStats records a served request as a span tree: the client's
// round trip, with the server's queue wait, plan lookup, compile and exec
// laid end to end inside it in the order the handler runs them. What is
// left over — the request span's self time — is HTTP, telemetry, row
// decoding and JSON.
func spanFromStats(rec *recorder, class string, start time.Time, d time.Duration, st servedStats) {
	req := rec.request()
	root := rec.addClass("http.request", class, 0, req, start, start.Add(d), "")
	at := start
	for _, part := range []struct {
		name string
		ns   int64
	}{
		{"serve.queue", st.QueueNS}, {"serve.plan_lookup", st.PlanLookupNS},
		{"serve.compile", st.CompileNS}, {"serve.exec", st.ExecNS},
	} {
		end := at.Add(time.Duration(part.ns))
		rec.add(part.name, root, req, at, end, "stats")
		at = end
	}
}

func flatten(per [][]sample) []sample {
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}
