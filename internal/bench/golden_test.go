package bench

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from the current figures")

// goldenCfg is the configuration the figure golden is recorded at. It is
// small — the times come from the device cost models over counted runs, so
// they are deterministic at any size — and constant: the golden is only
// comparable to a run of the same configuration.
var goldenCfg = Config{N: 1 << 14, SF: 0.005, Seed: 42}

const figuresGolden = "testdata/figures.golden"

// figurePoint is one pinned value: the figure, the series and the x it
// sits at, and the priced time (seconds; milliseconds for the TPC-H
// tables, as they print).
type figurePoint struct {
	fig, series, x string
	t              float64
}

func (p figurePoint) key() string { return p.fig + "\t" + p.series + "\t" + p.x }

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func figurePoints(f *Figure) []figurePoint {
	var out []figurePoint
	for _, s := range f.Series {
		for _, p := range s.Points {
			out = append(out, figurePoint{f.Name, s.Name, fmtFloat(p.X), p.T})
		}
	}
	return out
}

func tablePoints(t *TPCHTable) []figurePoint {
	var out []figurePoint
	for _, e := range t.Engines {
		for _, r := range t.Rows {
			if v, ok := r.Times[e]; ok {
				out = append(out, figurePoint{t.Name, e, strconv.Itoa(r.Query), v})
			}
		}
	}
	return out
}

// allFigurePoints regenerates every figure target of voodoo-bench at cfg —
// Figure 1, the TPC-H tables 12 and 13, the native and Voodoo panels of
// Figures 14–16, and the ablations with the mechanism on and off — and
// flattens them into points, in a fixed order.
func allFigurePoints(cfg Config) ([]figurePoint, error) {
	var pts []figurePoint
	f1, err := Fig1(cfg)
	if err != nil {
		return nil, fmt.Errorf("fig1: %w", err)
	}
	pts = append(pts, figurePoints(f1)...)
	for _, gen := range []func(Config) (*TPCHTable, error){Fig12, Fig13} {
		tbl, err := gen(cfg)
		if err != nil {
			return nil, err
		}
		pts = append(pts, tablePoints(tbl)...)
	}
	for _, panel := range []struct {
		native func(Config) (*Figure, error)
		voodoo func(Config) (map[string]*Figure, error)
		keys   []string
	}{
		{Fig14Native, Fig14, []string{"fig14b", "fig14c"}},
		{Fig15Native, Fig15, []string{"fig15b", "fig15c"}},
		{Fig16Native, Fig16, []string{"fig16b", "fig16c"}},
	} {
		nat, err := panel.native(cfg)
		if err != nil {
			return nil, err
		}
		pts = append(pts, figurePoints(nat)...)
		figs, err := panel.voodoo(cfg)
		if err != nil {
			return nil, err
		}
		for _, k := range panel.keys {
			pts = append(pts, figurePoints(figs[k])...)
		}
	}
	as, err := Ablations(cfg)
	if err != nil {
		return nil, fmt.Errorf("ablations: %w", err)
	}
	for _, a := range as {
		pts = append(pts,
			figurePoint{"ablations", a.Name, "on", a.OnTime},
			figurePoint{"ablations", a.Name, "off", a.OffTime})
	}
	return pts, nil
}

func renderPoints(pts []figurePoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# figure\tseries\tx\ttime — N=%d SF=%g seed=%d; seconds, fig12/fig13 in ms\n",
		goldenCfg.N, goldenCfg.SF, goldenCfg.Seed)
	for _, p := range pts {
		sb.WriteString(p.key() + "\t" + fmtFloat(p.t) + "\n")
	}
	return sb.String()
}

func parsePoints(t *testing.T, text string) []figurePoint {
	t.Helper()
	var pts []figurePoint
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			t.Fatalf("%s: malformed line %q", figuresGolden, line)
		}
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			t.Fatalf("%s: bad time in %q: %v", figuresGolden, line, err)
		}
		pts = append(pts, figurePoint{f[0], f[1], f[2], v})
	}
	return pts
}

// TestFiguresGolden pins every point of every figure the paper's
// evaluation regenerates. The times are priced by the device cost models
// from counted runs, so on one source tree they are deterministic, and any
// change to lowering, execution counting or a device model that moves a
// figure fails here, naming the first point it moved. The 1e-9 relative
// slack absorbs only FMA contraction on architectures that fuse; a change
// that means to move the figures rewrites the file with -update.
func TestFiguresGolden(t *testing.T) {
	pts, err := allFigurePoints(goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(figuresGolden, []byte(renderPoints(pts)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(figuresGolden)
	if err != nil {
		t.Fatalf("no figure golden (run `go test ./internal/bench -run FiguresGolden -update` to create): %v", err)
	}
	want := parsePoints(t, string(data))
	for i := 0; i < max(len(pts), len(want)); i++ {
		switch {
		case i >= len(pts):
			t.Fatalf("point %q of %s is no longer produced", want[i].key(), figuresGolden)
		case i >= len(want):
			t.Fatalf("point %q is not in %s", pts[i].key(), figuresGolden)
		case pts[i].key() != want[i].key():
			t.Fatalf("point %d is %q, %s has %q", i, pts[i].key(), figuresGolden, want[i].key())
		}
	}
	moved := 0
	for i, p := range pts {
		w := want[i].t
		if math.Abs(p.t-w) <= 1e-9*math.Max(math.Abs(p.t), math.Abs(w)) {
			continue
		}
		if moved == 0 {
			t.Errorf("%s, series %q, x=%s moved: %s → %s (%+.4g%%)",
				p.fig, p.series, p.x, fmtFloat(w), fmtFloat(p.t), 100*(p.t-w)/w)
		}
		moved++
	}
	if moved > 0 {
		t.Errorf("%d of %d points differ from %s (rerun with -update if the move is intended)",
			moved, len(pts), figuresGolden)
	}
}
