// Package metrics is the process-wide metrics layer: a pure-stdlib
// registry of counters, gauges and fixed-bucket histograms, rendered in
// Prometheus text exposition format for the diagnostics server to scrape.
//
// Design constraints, in order:
//
//   - Hot-path cost. A Counter.Add is one atomic add; a Histogram.Observe
//     is one atomic bucket add plus a CAS-loop float add for the sum.
//     Nothing on the update path takes a lock or allocates.
//   - One source of truth. A value lives in exactly one place: counters
//     are bumped directly; state some other structure already owns (the
//     event log's sink accounting, the scheduler's worker count, runtime
//     samples) is read at scrape time through CounterFunc/GaugeFunc
//     closures, so no value is ever double-counted.
//   - Deterministic output. WritePrometheus renders families in name
//     order and labeled children in label order, so the exposition format
//     can be locked in by a golden test.
//
// Registration is idempotent: asking for an existing name with the same
// type returns the existing collector (func-backed collectors replace
// their closure instead, so a restarted subsystem re-binds cleanly), and
// a type conflict panics at registration time — misregistration is a
// programming error, not a runtime condition.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric type strings, as the exposition format spells them.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Registry holds metric families and renders them for scraping. The zero
// value is not usable; call NewRegistry (or use Default).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// Default is the process-wide registry. Package-level constructors
// register on it, and the diagnostics server scrapes it. Go runtime
// metrics (goroutines, heap, GC) are pre-registered.
var Default = func() *Registry {
	r := NewRegistry()
	r.RegisterRuntime()
	return r
}()

// NewRegistry returns an empty registry (tests use private registries to
// keep golden output stable).
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

// family is one named metric family: a plain metric is a family with a
// single unlabeled child, a vec family has one child per label value set.
type family struct {
	name   string
	help   string
	typ    string
	labels []string // label names for vec families; nil otherwise

	mu       sync.Mutex
	children map[string]metric // keyed by rendered label pairs ("" = unlabeled)
}

// metric is anything that can render its sample lines.
type metric interface {
	// write emits the metric's sample lines; labels is the rendered label
	// pair list without braces ("" for unlabeled).
	write(w io.Writer, name, labels string)
}

// lookup returns the family named name, creating it on first use, and
// panics when an existing family disagrees on type or label names.
func (r *Registry) lookup(name, help, typ string, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("metrics: %s already registered as %s, asked for %s", name, f.typ, typ))
		}
		if strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("metrics: %s already registered with labels %v, asked for %v", name, f.labels, labels))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, children: map[string]metric{}}
	r.fams[name] = f
	return f
}

// child returns the metric registered under key, creating it with mk on
// first use. When replace is set, an existing child is overwritten
// (func-backed collectors re-bind), otherwise the existing child must be
// assignable to the same concrete type, which lookup's type check already
// guarantees.
func (f *family) child(key string, replace bool, mk func() metric) metric {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok && !replace {
		return m
	}
	m := mk()
	f.children[key] = m
	return m
}

// --- counters ---

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be non-negative; Add does not
// check, counters are trusted internal callers).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name, labels string) {
	writeSample(w, name, labels, float64(c.v.Load()))
}

// Counter registers (or returns) the plain counter named name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, typeCounter, nil)
	return f.child("", false, func() metric { return &Counter{} }).(*Counter)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for values another structure already owns.
// Re-registering replaces the closure.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, typeCounter, nil)
	f.child("", true, func() metric { return funcMetric(fn) })
}

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct{ fam *family }

// CounterVec registers (or returns) the labeled counter family named name.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	for _, l := range labelNames {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q", l))
		}
	}
	return &CounterVec{fam: r.lookup(name, help, typeCounter, labelNames)}
}

// With returns the child counter for the given label values (one per
// label name, in registration order). Children appear in the exposition
// output as soon as they exist, so callers that want zero-valued series
// visible pre-create them at startup.
func (v *CounterVec) With(values ...string) *Counter {
	key := renderLabels(v.fam.labels, values)
	return v.fam.child(key, false, func() metric { return &Counter{} }).(*Counter)
}

// --- gauges ---

// Gauge is a settable float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; gauges are low-frequency).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nb := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, name, labels string) {
	writeSample(w, name, labels, g.Value())
}

// Gauge registers (or returns) the plain gauge named name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, typeGauge, nil)
	return f.child("", false, func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
// Re-registering replaces the closure.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, typeGauge, nil)
	f.child("", true, func() metric { return funcMetric(fn) })
}

// GaugeVec is a family of gauges partitioned by label values.
type GaugeVec struct{ fam *family }

// GaugeVec registers (or returns) the labeled gauge family named name.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	for _, l := range labelNames {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q", l))
		}
	}
	return &GaugeVec{fam: r.lookup(name, help, typeGauge, labelNames)}
}

// With returns the child gauge for the given label values (one per label
// name, in registration order).
func (v *GaugeVec) With(values ...string) *Gauge {
	key := renderLabels(v.fam.labels, values)
	return v.fam.child(key, false, func() metric { return &Gauge{} }).(*Gauge)
}

// funcMetric is a scrape-time-evaluated collector.
type funcMetric func() float64

func (f funcMetric) write(w io.Writer, name, labels string) {
	writeSample(w, name, labels, f())
}

// --- histograms ---

// DefBuckets are the default latency bucket upper bounds, in seconds:
// 100µs to 60s, roughly ×2.5 per step — wide enough to hold both a fused
// Q6 at small scale and a many-join query under load.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket histogram. Buckets are cumulative only at
// render time; Observe touches exactly one bucket counter plus the sum.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	sum    Gauge          // float accumulator (CAS add)
}

// Observe records v. Bucket semantics follow Prometheus: an observation
// lands in the first bucket whose upper bound is >= v (`le`, inclusive).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

func (h *Histogram) write(w io.Writer, name, labels string) {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		writeSample(w, name+"_bucket", joinLabels(labels, `le="`+formatFloat(b)+`"`), float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSample(w, name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(cum))
	writeSample(w, name+"_sum", labels, h.Sum())
	writeSample(w, name+"_count", labels, float64(cum))
}

// Histogram registers (or returns) the histogram named name with the
// given bucket upper bounds (nil = DefBuckets). The first registration's
// buckets win.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s: bucket bounds not ascending at %d", name, i))
		}
	}
	f := r.lookup(name, help, typeHistogram, nil)
	return f.child("", false, func() metric {
		b := append([]float64(nil), bounds...)
		return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	}).(*Histogram)
}

// --- exposition ---

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families in name order, labeled children in
// label order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, k := range keys {
			f.children[k].write(w, f.name, k)
		}
		f.mu.Unlock()
	}
}

// Handler returns an http.Handler serving the registry in exposition
// format — the /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// --- package-level constructors on Default ---

// NewCounter registers (or returns) a counter on the Default registry.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewCounterVec registers (or returns) a labeled counter family on the
// Default registry.
func NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return Default.CounterVec(name, help, labelNames...)
}

// NewGaugeFunc registers a scrape-time gauge on the Default registry.
func NewGaugeFunc(name, help string, fn func() float64) { Default.GaugeFunc(name, help, fn) }

// NewHistogram registers (or returns) a histogram on the Default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return Default.Histogram(name, help, bounds)
}

// --- rendering helpers ---

func writeSample(w io.Writer, name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatFloat(v))
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderLabels renders `k="v"` pairs in label-name order. The pair list
// doubles as the child map key, which keeps exposition output sorted.
func renderLabels(names, values []string) string {
	if len(names) != len(values) {
		panic(fmt.Sprintf("metrics: want %d label values, got %d", len(names), len(values)))
	}
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	return sb.String()
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
