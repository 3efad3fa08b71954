package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// CIConfig is the fixed configuration of the CI bench smoke. It is
// deliberately small — the smoke guards the cost-model outputs and the
// plan shapes, not absolute hardware speed, and the simulated times are
// deterministic at any size — and deliberately constant: a baseline is
// only comparable to a run of the same configuration.
var CIConfig = Config{N: 1 << 14, SF: 0.005, Seed: 42}

// CIReport is the artifact of one CI smoke run (BENCH_ci.json): the
// configuration it ran at and, per benchmark series, the median simulated
// time in seconds. Times come from the device cost models, so on a given
// source tree the report is bit-deterministic; a diff against the
// committed baseline means a code change moved a figure.
type CIReport struct {
	N       int                `json:"n"`
	SF      float64            `json:"sf"`
	Seed    int64              `json:"seed"`
	Medians map[string]float64 `json:"medians"`
}

// CISmoke runs the short benchmark subset: the selection study (Figure
// 1), TPC-H on the CPU model (Figure 13), selective aggregation (Figure
// 15), the FK join (Figure 16), and the design-choice ablations.
func CISmoke() (*CIReport, error) {
	cfg := CIConfig
	rep := &CIReport{N: cfg.N, SF: cfg.SF, Seed: cfg.Seed, Medians: map[string]float64{}}

	err := rep.measured("fig1", func() error {
		f1, err := Fig1(cfg)
		if err != nil {
			return err
		}
		rep.addFigure(f1)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fig1: %w", err)
	}

	err = rep.measured("fig13", func() error {
		f13, err := Fig13(cfg)
		if err != nil {
			return err
		}
		for _, e := range f13.Engines {
			var ts []float64
			for _, r := range f13.Rows {
				if v, ok := r.Times[e]; ok {
					ts = append(ts, v/1000) // ms → s, like every other metric
				}
			}
			rep.Medians["fig13/"+e] = median(ts)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fig13: %w", err)
	}

	err = rep.measured("fig15", func() error {
		f15, err := Fig15(cfg)
		if err != nil {
			return err
		}
		for _, key := range []string{"fig15b", "fig15c"} {
			rep.addFigure(f15[key])
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fig15: %w", err)
	}

	err = rep.measured("fig16", func() error {
		f16, err := Fig16(cfg)
		if err != nil {
			return err
		}
		for _, key := range []string{"fig16b", "fig16c"} {
			rep.addFigure(f16[key])
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fig16: %w", err)
	}

	err = rep.measured("ablations", func() error {
		as, err := Ablations(cfg)
		if err != nil {
			return err
		}
		for _, a := range as {
			rep.Medians["ablation/"+a.Name+"/on"] = a.OnTime
			rep.Medians["ablation/"+a.Name+"/off"] = a.OffTime
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ablations: %w", err)
	}
	return rep, nil
}

// measured runs one figure regeneration and records -benchmem-style
// counters under "<name>/allocs_per_op" and "<name>/bytes_per_op", where
// one op is the full regeneration of that figure. The counters live in
// the same medians block as the simulated times so they persist into
// BENCH_*.json, but CompareCI only warns on them (see CompareCIAllocs):
// allocation counts wobble with GC scheduling in a way simulated times
// never do.
func (r *CIReport) measured(name string, fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := fn(); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	r.Medians[name+"/allocs_per_op"] = float64(after.Mallocs - before.Mallocs)
	r.Medians[name+"/bytes_per_op"] = float64(after.TotalAlloc - before.TotalAlloc)
	return nil
}

// isAllocKey reports whether a medians key is a -benchmem counter rather
// than a simulated time.
func isAllocKey(name string) bool {
	return strings.HasSuffix(name, "/allocs_per_op") || strings.HasSuffix(name, "/bytes_per_op")
}

func (r *CIReport) addFigure(f *Figure) {
	for _, s := range f.Series {
		ts := make([]float64, len(s.Points))
		for i, p := range s.Points {
			ts[i] = p.T
		}
		r.Medians[f.Name+"/"+s.Name] = median(ts)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// CompareCI checks a smoke run against the committed baseline and returns
// one violation string per benchmark whose median regressed by more than
// tol (fractional, e.g. 0.25). Improvements never fail — they show up
// when the baseline is refreshed. Sub-microsecond medians are skipped:
// at that scale a single cache-line crossing is a large fraction.
func CompareCI(cur, base *CIReport, tol float64) []string {
	var out []string
	if cur.N != base.N || cur.SF != base.SF || cur.Seed != base.Seed {
		return []string{fmt.Sprintf(
			"configuration mismatch: run N=%d SF=%g seed=%d, baseline N=%d SF=%g seed=%d — regenerate the baseline",
			cur.N, cur.SF, cur.Seed, base.N, base.SF, base.Seed)}
	}
	names := make([]string, 0, len(base.Medians))
	for name := range base.Medians {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if isAllocKey(name) {
			continue // soft-gated by CompareCIAllocs
		}
		bv := base.Medians[name]
		cv, ok := cur.Medians[name]
		if !ok {
			out = append(out, fmt.Sprintf("%s: present in baseline, missing from this run", name))
			continue
		}
		if bv < 1e-6 {
			continue
		}
		if cv > bv*(1+tol) {
			out = append(out, fmt.Sprintf("%s: %.6fs → %.6fs (%+.0f%%, tolerance %.0f%%)",
				name, bv, cv, 100*(cv-bv)/bv, 100*tol))
		}
	}
	return out
}

// CompareCIAllocs checks the -benchmem counters against the baseline and
// returns one warning per counter that grew beyond tol. Warnings, never
// failures: allocation counts move with GC scheduling, map growth timing
// and legitimate pooling changes, so the gate is advisory until a human
// regenerates the baseline. A baseline with no alloc counters at all (one
// predating pooled benchmarks) yields a single pointer to regenerate it.
func CompareCIAllocs(cur, base *CIReport, tol float64) []string {
	var out []string
	names := make([]string, 0, len(base.Medians))
	hasAllocBaseline := false
	for name := range base.Medians {
		if isAllocKey(name) {
			hasAllocBaseline = true
			names = append(names, name)
		}
	}
	if !hasAllocBaseline {
		return []string{"baseline has no allocs/op counters — run `voodoo-bench ci -write-baseline` and commit it to start gating allocations"}
	}
	sort.Strings(names)
	for _, name := range names {
		bv := base.Medians[name]
		cv, ok := cur.Medians[name]
		if !ok {
			out = append(out, fmt.Sprintf("%s: present in baseline, missing from this run", name))
			continue
		}
		if bv < 1 {
			continue
		}
		if cv > bv*(1+tol) {
			out = append(out, fmt.Sprintf("%s: %.0f → %.0f (%+.0f%%, tolerance %.0f%%)",
				name, bv, cv, 100*(cv-bv)/bv, 100*tol))
		}
	}
	return out
}
