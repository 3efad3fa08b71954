package bench

import (
	"fmt"
	"strings"
	"sync"

	"voodoo/internal/baseline/hyper"
	"voodoo/internal/device"
	"voodoo/internal/rel"
	"voodoo/internal/storage"
	"voodoo/internal/tpch"
)

// TPCHRow is one query's times across engines (milliseconds), as in
// Figures 12 and 13.
type TPCHRow struct {
	Query int
	Times map[string]float64 // engine name → ms
}

// TPCHTable is a regenerated TPC-H comparison.
type TPCHTable struct {
	Name    string
	Title   string
	Engines []string
	Rows    []TPCHRow
}

// Render prints the table.
func (t *TPCHTable) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.Name, t.Title)
	fmt.Fprintf(&sb, "%-6s", "query")
	for _, e := range t.Engines {
		fmt.Fprintf(&sb, "%-12s", e)
	}
	sb.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "q%-5d", r.Query)
		for _, e := range t.Engines {
			if v, ok := r.Times[e]; ok {
				fmt.Fprintf(&sb, "%-12.2f", v)
			} else {
				fmt.Fprintf(&sb, "%-12s", "-")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Time returns one cell of the table.
func (t *TPCHTable) Time(query int, engine string) float64 {
	for _, r := range t.Rows {
		if r.Query == query {
			return r.Times[engine]
		}
	}
	return 0
}

var (
	tpchCatalogs   = map[string]*storage.Catalog{}
	tpchCatalogsMu sync.Mutex
)

// tpchCatalog caches generated catalogs per configuration (generation
// dominates small benchmark runs otherwise).
func tpchCatalog(cfg Config) *storage.Catalog {
	key := fmt.Sprintf("%g/%d", cfg.sf(), cfg.Seed)
	tpchCatalogsMu.Lock()
	defer tpchCatalogsMu.Unlock()
	if c, ok := tpchCatalogs[key]; ok {
		return c
	}
	c := tpch.Generate(tpch.Config{SF: cfg.sf(), Seed: cfg.Seed})
	tpchCatalogs[key] = c
	return c
}

// Fig13 regenerates Figure 13: TPC-H on the CPU — HyPer vs Voodoo vs
// Ocelot, all priced on the 8-thread CPU model.
func Fig13(cfg Config) (*TPCHTable, error) {
	cpu := device.CPU(8)
	return tpchFigure(cfg, &TPCHTable{Name: "fig13",
		Title:   fmt.Sprintf("TPC-H on CPU (SF %g, times in ms, %s model)", cfg.sf(), cpu.Name),
		Engines: []string{"HyPeR", "Voodoo", "Ocelot"}}, tpch.QueryNumbers, cpu)
}

// Fig12 regenerates Figure 12: TPC-H on the GPU — Voodoo vs Ocelot on the
// queries Ocelot supports, priced on the GPU model.
func Fig12(cfg Config) (*TPCHTable, error) {
	gpu := device.GPU()
	return tpchFigure(cfg, &TPCHTable{Name: "fig12",
		Title:   fmt.Sprintf("TPC-H on GPU (SF %g, times in ms, %s model)", cfg.sf(), gpu.Name),
		Engines: []string{"Voodoo", "Ocelot"}}, tpch.GPUQueryNumbers, gpu)
}

// tpchFigure runs each query on each of the table's engines, in order, and
// prices the events each run counted on dev.
func tpchFigure(cfg Config, table *TPCHTable, nums []int, dev *device.Model) (*TPCHTable, error) {
	cat := tpchCatalog(cfg)
	engines := map[string]rel.Runner{
		"HyPeR":  &hyper.Engine{Cat: cat},
		"Voodoo": &rel.Engine{Cat: cat, Backend: rel.Compiled, CollectStats: true},
		"Ocelot": &rel.Engine{Cat: cat, Backend: rel.BulkCompiled, CollectStats: true},
	}
	for _, num := range nums {
		q, err := tpch.Plan(num, cat)
		if err != nil {
			return nil, err
		}
		row := TPCHRow{Query: num, Times: map[string]float64{}}
		for _, name := range table.Engines {
			_, stats, err := engines[name].Run(q)
			if err != nil {
				return nil, fmt.Errorf("q%d %s: %w", num, strings.ToLower(name), err)
			}
			row.Times[name] = dev.Time(stats) * 1000
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}
