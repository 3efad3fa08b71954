package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// perLayerBand is the band the comparer judges per-layer metrics by. They
// carry no bound in BENCHMARK.json — nothing is accepted or rejected on
// them — so the verdict is only a reading aid.
const perLayerBand = 0.10

// resultSet is the results under one directory: workload → metric → one
// value per run found.
type resultSet map[string]map[string][]float64

// loadResults reads every result file under dir (any depth; run.sh writes
// one subdirectory per repetition). Trace files are skipped. A result whose
// run answered wrongly or failed a request is an error: its numbers were
// not measured on the work the other side did.
func loadResults(dir string) (resultSet, error) {
	set := resultSet{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".json") || strings.HasSuffix(path, ".trace.json") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !r.Correct || r.Failed > 0 {
			return fmt.Errorf("%s: run was not correct (correct=%v, %d of %d failed)", path, r.Correct, r.Failed, r.Attempted)
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for _, m := range r.Metrics {
			set[r.Workload][m.Name] = append(set[r.Workload][m.Name], m.Value)
		}
		return nil
	})
	if err == nil && len(set) == 0 {
		err = fmt.Errorf("%s: no result files", dir)
	}
	return set, err
}

// spread is the distance between the quartiles of xs as a share of their
// median: the run-to-run noise of one side. One run has no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

// verdict judges B against A for a metric whose direction is better and
// whose band is bound: "unresolved" when either side's own runs spread
// wider than the band, otherwise "worse", "better" or "same".
func verdict(a, b []float64, better string, bound float64) string {
	ma, mb := median(a), median(b)
	if max(spread(a), spread(b)) > bound {
		return "unresolved"
	}
	if ma == mb {
		return "same"
	}
	worse := mb > ma
	if better == "higher" {
		worse = !worse
	}
	// The change is taken as a share of A, the base.
	if ma != 0 && math.Abs(mb-ma)/math.Abs(ma) <= bound {
		return "same"
	}
	if worse {
		return "worse"
	}
	return "better"
}

// compareDirs prints one row per metric and workload: both medians, B's as
// a ratio of A's, the bound and the verdict. A workload neither side ran is
// skipped; a workload or metric only one side has gets a "missing" row. It
// fails when an end-to-end metric is worse or missing.
func compareDirs(w io.Writer, dirA, dirB string) error {
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median (n)\tB median (n)\tB/A\tbound\tverdict\n")
	var worse, missing []string
	for _, wl := range workloads {
		if a[wl.Name] == nil && b[wl.Name] == nil {
			continue
		}
		row := func(d metricDef, bound float64, label string) string {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(va) == 0 && len(vb) == 0 {
				return "" // sets of timed runs alone have no per-layer metrics, and the reverse
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t(%d)\t(%d)\t-\t%s\tmissing\n", wl.Name, d.Name, d.Unit, len(va), len(vb), label)
				return "missing"
			}
			ratio := "-"
			if ma := median(va); ma != 0 {
				ratio = fmt.Sprintf("%.4f", median(vb)/ma)
			}
			v := verdict(va, vb, d.Better, bound)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d)\t%.6g (%d)\t%s\t%s\t%s\n",
				wl.Name, d.Name, d.Unit, median(va), len(va), median(vb), len(vb), ratio, label, v)
			return v
		}
		for _, d := range endToEnd {
			switch row(d, d.Bound, fmt.Sprintf("%.0f%% %s", 100*d.Bound, d.Better)) {
			case "worse":
				worse = append(worse, wl.Name+"/"+d.Name)
			case "missing":
				missing = append(missing, wl.Name+"/"+d.Name)
			}
		}
		for _, d := range perLayer {
			row(d, perLayerBand, "none "+d.Better)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(missing) > 0 {
		return fmt.Errorf("end-to-end metrics missing from %s or %s: %s", dirA, dirB, strings.Join(missing, ", "))
	}
	if len(worse) > 0 {
		return fmt.Errorf("end-to-end metrics worse in %s than in %s: %s", dirB, dirA, strings.Join(worse, ", "))
	}
	return nil
}
