// Package bench regenerates every figure of the paper's evaluation (§5):
// the selection study (Figure 1), TPC-H on GPU and CPU against the Ocelot
// and HyPer baselines (Figures 12 and 13), just-in-time layout
// transformation (Figure 14), selective aggregation (Figure 15) and
// branch-free foreign-key joins (Figure 16) — plus ablations of the design
// choices DESIGN.md calls out.
//
// Workloads execute natively (results are verified), and reported times
// come from the device cost models (package device); see DESIGN.md §2 for
// why this substitution preserves each figure's shape.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"voodoo/internal/compile"
	"voodoo/internal/core"
	"voodoo/internal/device"
	"voodoo/internal/exec"
	"voodoo/internal/interp"
	"voodoo/internal/vector"
)

// Config scales the experiments.
type Config struct {
	// N is the element count for the microbenchmarks (default 1<<22).
	N int
	// SF is the TPC-H scale factor (default 0.05).
	SF float64
	// Seed drives all synthetic data.
	Seed int64
}

func (c Config) n() int {
	if c.N > 0 {
		return c.N
	}
	return 1 << 22
}

func (c Config) sf() float64 {
	if c.SF > 0 {
		return c.SF
	}
	return 0.05
}

// Point is one measurement: X is the swept parameter (often selectivity),
// T the simulated time in seconds.
type Point struct {
	X float64
	T float64
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a regenerated evaluation figure.
type Figure struct {
	Name   string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render prints the figure as an aligned text table (x in rows, one column
// per series).
func (f *Figure) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", f.Name, f.Title)
	fmt.Fprintf(&sb, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "%-22s", s.Name)
	}
	sb.WriteString("\n")
	if len(f.Series) == 0 {
		return sb.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&sb, "%-12.4g", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&sb, "%-22.6f", s.Points[i].T)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// SeriesByName returns the named series.
func (f *Figure) SeriesByName(name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

// At returns the measurement closest to x.
func (s *Series) At(x float64) float64 {
	best, bd := 0.0, 1e300
	for _, p := range s.Points {
		d := p.X - x
		if d < 0 {
			d = -d
		}
		if d < bd {
			bd, best = d, p.T
		}
	}
	return best
}

// defaultSelectivities is the sweep used by Figures 1 and 15 (fractions).
var defaultSelectivities = []float64{0.0001, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}

// fig16Selectivities is the linear sweep of Figure 16 (percent axis).
var fig16Selectivities = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// uniformFloats returns n uniform values in [0, 1).
func uniformFloats(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// uniformInts returns n uniform values in [0, m).
func uniformInts(n int, m int64, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63n(m)
	}
	return out
}

// compileFigure compiles every figure program (runProgram, priced); a test
// wraps it to inspect the plans.
var compileFigure = compile.Compile

// runProgram compiles and executes a program with stats collection and
// returns the stats plus the root values (for verification).
func runProgram(p *core.Program, st interp.Storage, opt compile.Options) (*exec.Stats, map[core.Ref]*vector.Vector, error) {
	plan, err := compileFigure(p, st, opt)
	if err != nil {
		return nil, nil, err
	}
	res, err := plan.RunWith(context.Background(), compile.RunOpts{CollectStats: true})
	if err != nil {
		return nil, nil, err
	}
	return &res.Stats, res.Values, nil
}

// benchPool recycles kernel buffers across the thousands of measurement
// runs a figure regeneration performs. Only priced draws on it: its
// values are never inspected, so the working memory can be released the
// moment the stats are extracted.
var benchPool = vector.NewPool(0)

// priced runs a program and prices it on a device model.
func priced(p *core.Program, st interp.Storage, opt compile.Options, m *device.Model) (float64, error) {
	plan, err := compileFigure(p, st, opt)
	if err != nil {
		return 0, err
	}
	res, err := plan.RunWith(context.Background(), compile.RunOpts{Pool: benchPool, CollectStats: true})
	if err != nil {
		return 0, err
	}
	t := m.Time(&res.Stats)
	res.Release()
	return t, nil
}
