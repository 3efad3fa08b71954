package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around a call it makes into a layer's public function (or
// synthesized from the server's per-request stats block, Source "stats").
// Spans of one request share Request; Parent is the span that caused it
// (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	// Class is the request's statement class, on the request's root span.
	Class   string  `json:"class,omitempty"`
	Section string  `json:"section"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Source  string  `json:"source,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing off: every method is a no-op, so timed runs share the code path
// of traced ones without paying for them.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	section string
	nextReq int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) setSection(s string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.section = s
	r.mu.Unlock()
}

// request mints the identifier the spans of one request share.
func (r *recorder) request() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextReq++
	return r.nextReq
}

// add records a finished interval and returns its id.
func (r *recorder) add(name string, parent, request int, start, end time.Time, source string) int {
	return r.addClass(name, "", parent, request, start, end, source)
}

func (r *recorder) addClass(name, class string, parent, request int, start, end time.Time, source string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Request: request, Name: name, Class: class, Section: r.section,
		StartUS: float64(start.Sub(r.t0).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(r.t0).Nanoseconds()) / 1e3,
		Source:  source,
	})
	return id
}

// begin opens a span whose end is filled in by end.
func (r *recorder) begin(name string, parent, request int) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	return r.add(name, parent, request, now, now, "")
}

// end closes a span opened by begin and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndUS = float64(now.Sub(r.t0).Nanoseconds()) / 1e3
	return time.Duration((s.EndUS - s.StartUS) * 1e3)
}

// selfTimes returns, per span id, the span's duration minus the part of
// that interval its child spans cover.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		covered, edge := 0.0, s.StartUS
		for _, k := range kids {
			lo, hi := max(k.StartUS, edge), min(k.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.EndUS - s.StartUS) - covered
	}
	return self
}

// layerSelf is the per-span-name total of self time, the table the trace
// file leads with.
type layerSelf struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	SelfUS float64 `json:"self_us"`
}

func summarize(spans []span) []layerSelf {
	self := selfTimes(spans)
	by := map[string]*layerSelf{}
	for _, s := range spans {
		key := s.Section + "/" + s.Name
		l := by[key]
		if l == nil {
			l = &layerSelf{Name: key}
			by[key] = l
		}
		l.Spans++
		l.SelfUS += self[s.ID]
	}
	out := make([]layerSelf, 0, len(by))
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write dumps the spans and their self-time summary as JSON.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	data, err := json.Marshal(struct {
		Layers []layerSelf `json:"layers"`
		Spans  []span      `json:"spans"`
	}{summarize(spans), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
