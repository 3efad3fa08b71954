package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one reported number. Q1 and Q3 are the quartiles of the
// samples behind Value (equal to Value for counts and single readings);
// N is the sample count.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// fingerprint identifies the machine and inputs a result came from.
type fingerprint struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	SF         float64 `json:"sf"`
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
}

// report collects the metrics of one run against the spec: a name outside
// the spec, or one emitted twice, is a harness bug and fails the run.
type report struct {
	Workload  string      `json:"workload"`
	Env       fingerprint `json:"env"`
	Correct   bool        `json:"correct"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	Metrics   []metric    `json:"metrics"`

	defs map[string]metricDef
	seen map[string]bool
	errs []string
}

func newReport(workload string, env fingerprint) *report {
	r := &report{Workload: workload, Env: env, defs: map[string]metricDef{}, seen: map[string]bool{}}
	for _, d := range endToEnd {
		r.defs[d.Name] = d
	}
	for _, d := range perLayer {
		r.defs[d.Name] = d
	}
	return r
}

func (r *report) errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *report) put(m metric) {
	d, ok := r.defs[m.Name]
	switch {
	case !ok:
		r.errorf("metric %q is not in the spec", m.Name)
		return
	case r.seen[m.Name]:
		r.errorf("metric %q emitted twice", m.Name)
		return
	case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
		r.errorf("metric %q has no finite value: a sample it is computed from is missing", m.Name)
		return
	}
	r.seen[m.Name] = true
	m.Unit = d.Unit
	r.Metrics = append(r.Metrics, m)
}

// emit records a single reading.
func (r *report) emit(name string, v float64) {
	r.put(metric{Name: name, Value: v, Q1: v, Q3: v, N: 1})
}

// emitQ records the q-quantile of samples, with their quartiles.
func (r *report) emitQ(name string, samples []float64, q float64) {
	r.put(metric{Name: name, Value: quantile(samples, q),
		Q1: quantile(samples, 0.25), Q3: quantile(samples, 0.75), N: len(samples)})
}

// missing lists the spec metrics of defs that were not emitted.
func (r *report) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if !r.seen[d.Name] {
			out = append(out, d.Name)
		}
	}
	return out
}

// print writes every metric by name with its unit, one per line.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "# %s seed=%d sf=%g clients=%d nproc=%d gomaxprocs=%d %s cpu=%q commit=%s\n",
		r.Workload, r.Env.Seed, r.Env.SF, r.Env.Clients, r.Env.NProc, r.Env.GOMAXPROCS,
		r.Env.GoVersion, r.Env.CPUModel, r.Env.Commit)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-36s %14.6g %-6s q1=%.6g q3=%.6g n=%d\n", m.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
}

// resultLine is the contract's last line of standard output: exactly the
// metrics of defs.
func (r *report) resultLine(defs []metricDef) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	want := map[string]bool{}
	for _, d := range defs {
		want[d.Name] = true
	}
	ms := map[string]mv{}
	for _, m := range r.Metrics {
		if want[m.Name] {
			ms[m.Name] = mv{m.Value, m.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// writeFile stores the full result as DIR/<workload>.json.
func (r *report) writeFile(dir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.Workload+".json"), data, 0o644)
}

// cpuModel reads the processor name for the fingerprint; a platform
// without /proc/cpuinfo reports its architecture instead.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
