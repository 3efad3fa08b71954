package compile

import (
	"fmt"
	"strings"

	"voodoo/internal/kernel"
)

// Explain renders the static execution plan: the step sequence with each
// fragment's control-vector shape (extent × intent), the SSA statements
// fused into it, and the fusion decisions (empty-slot suppression, virtual
// scatter, predication) the compiler took — the EXPLAIN view, no execution.
func (p *Plan) Explain() string {
	var sb strings.Builder
	backend := "compiled"
	if p.opt.ForceBulk {
		backend = "bulk-compiled"
	}
	var opts []string
	if p.opt.Predication {
		opts = append(opts, "predication")
	}
	if p.opt.ScatterParallel {
		opts = append(opts, "scatterparallel")
	}
	fmt.Fprintf(&sb, "plan: %s backend", backend)
	if len(opts) > 0 {
		fmt.Fprintf(&sb, " (%s)", strings.Join(opts, ", "))
	}
	sb.WriteString("\n")

	var inBufs, tmpBufs int
	var bufBytes int64
	for _, b := range p.kern.Bufs {
		if b.Input {
			inBufs++
		} else {
			tmpBufs++
		}
		sz := int64(b.Size) * 8
		if b.Valid {
			sz += int64(b.Size)
		}
		bufBytes += sz
	}
	fmt.Fprintf(&sb, "buffers: %d (%d input, %d temp), %dB\n",
		len(p.kern.Bufs), inBufs, tmpBufs, bufBytes)

	var outs []string
	for i, s := range p.steps {
		if o, ok := s.(*outputStep); ok {
			outs = append(outs, fmt.Sprintf("v%d", o.ref))
			continue
		}
		fmt.Fprintf(&sb, "%3d. ", i)
		switch x := s.(type) {
		case *bindStep:
			fmt.Fprintf(&sb, "bind     %s", p.kern.Bufs[x.buf].Name)
		case *persistStep:
			fmt.Fprintf(&sb, "persist  %s", x.name)
		case *fragStep:
			f := x.f
			mode := "blocked"
			if f.Strided {
				mode = "strided"
			}
			fmt.Fprintf(&sb, "fragment %-14s shape=%dx%d/%s n=%d",
				f.Name, f.Extent, f.Intent, mode, f.N)
			if f.Locals > 0 {
				fmt.Fprintf(&sb, " locals=%d", f.Locals)
			}
			writeProvenance(&sb, f.Prov.Stmts, provFlags(f))
		case *bulkStep:
			fmt.Fprintf(&sb, "bulk     %-14s", x.name)
			writeProvenance(&sb, x.stmts, nil)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "outputs: %s\n", strings.Join(outs, ", "))
	return sb.String()
}

// provFlags lists a fragment's fusion-decision flags for display.
func provFlags(f *kernel.Fragment) []string {
	var flags []string
	if f.Prov.Kind != "" {
		flags = append(flags, f.Prov.Kind)
	}
	if f.Prov.Suppressed {
		flags = append(flags, "suppress")
	}
	if f.Prov.Virtual {
		flags = append(flags, "virtual")
	}
	if f.Prov.Predicated {
		flags = append(flags, "predicated")
	}
	return flags
}

// writeProvenance appends " stmts=[...]" and " [flags]" when present.
func writeProvenance(sb *strings.Builder, stmts []int, flags []string) {
	if len(stmts) > 0 {
		parts := make([]string, len(stmts))
		for i, id := range stmts {
			parts[i] = fmt.Sprintf("v%d", id)
		}
		fmt.Fprintf(sb, " stmts=[%s]", strings.Join(parts, " "))
		if len(stmts) > 1 {
			fmt.Fprintf(sb, " fused:%d", len(stmts))
		}
	}
	if len(flags) > 0 {
		fmt.Fprintf(sb, " [%s]", strings.Join(flags, " "))
	}
}
