// Package opencl renders kernel IR as OpenCL C — the code the paper's
// backend JIT-compiles and ships to the driver (§3.1). This host has no
// OpenCL runtime, so the sources are an inspectable artifact (golden-tested,
// embedded in the voodoo-run tool) rather than an execution path; the
// semantics of every fragment are executed by package exec instead.
//
// The generated code follows the paper's conventions: one __kernel per
// fragment, fully inlined and free of function calls, with the global work
// size equal to the fragment's Extent and an inner sequential loop of
// Intent iterations. Buffers with ε (empty-slot) semantics carry a parallel
// validity mask.
package opencl

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

// cFloat renders a float constant as an OpenCL C literal: a literal with a
// decimal point, so −0.0 keeps its sign, or a macro for ±Inf and NaN.
func cFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "INFINITY"
	case math.IsInf(v, -1):
		return "-INFINITY"
	case math.IsNaN(v):
		return "NAN"
	}
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(s, ".e") {
		s += ".0"
	}
	return s
}

// Generate renders the whole kernel as one OpenCL C translation unit.
func Generate(k *kernel.Kernel) string {
	var sb strings.Builder
	sb.WriteString("// Generated by the Voodoo OpenCL backend.\n")
	sb.WriteString("// One kernel per fragment; global barriers fall between kernels.\n\n")
	for _, f := range k.Frags {
		genFragment(&sb, k, f)
		sb.WriteString("\n")
	}
	return sb.String()
}

// regKind infers the scalar type of each register from its defining
// instructions.
func regKinds(f *kernel.Fragment) map[kernel.Reg]vector.Kind {
	kinds := map[kernel.Reg]vector.Kind{
		kernel.RegGID: vector.Int,
		kernel.RegIV:  vector.Int,
		kernel.RegIdx: vector.Int,
		kernel.RegJ:   vector.Int,
	}
	mark := func(instrs []kernel.Instr) {
		for _, in := range instrs {
			switch in.Op {
			case kernel.IConstI:
				kinds[in.Dst] = vector.Int
			case kernel.IConstF:
				kinds[in.Dst] = vector.Float
			case kernel.ICastIF:
				kinds[in.Dst] = vector.Float
			case kernel.ICastFI, kernel.ILoadValid:
				kinds[in.Dst] = vector.Int
			case kernel.IBin, kernel.ISel, kernel.ILoad, kernel.IMov, kernel.ILoadLoc:
				if in.Float {
					kinds[in.Dst] = vector.Float
				} else {
					kinds[in.Dst] = vector.Int
				}
			}
		}
	}
	mark(f.Pre)
	for _, l := range f.Loops {
		mark(l.Body)
	}
	mark(f.Post)
	mark(f.PostLoopBody)
	return kinds
}

func usedBufs(f *kernel.Fragment) []int {
	seen := map[int]bool{}
	var order []int
	note := func(instrs []kernel.Instr) {
		for _, in := range instrs {
			switch in.Op {
			case kernel.ILoad, kernel.ILoadValid, kernel.IStore:
				if !seen[in.Buf] {
					seen[in.Buf] = true
					order = append(order, in.Buf)
				}
			}
		}
	}
	note(f.Pre)
	for _, l := range f.Loops {
		note(l.Body)
	}
	note(f.Post)
	note(f.PostLoopBody)
	return order
}

func cType(k vector.Kind) string {
	if k == vector.Float {
		return "double"
	}
	return "long"
}

func genFragment(sb *strings.Builder, k *kernel.Kernel, f *kernel.Fragment) {
	bufs := usedBufs(f)
	kinds := regKinds(f)

	fmt.Fprintf(sb, "// extent=%d intent=%d n=%d", f.Extent, f.Intent, f.N)
	if f.Strided {
		sb.WriteString(" strided")
	}
	sb.WriteString("\n")
	fmt.Fprintf(sb, "__kernel void %s(\n", sanitize(f.Name))
	for i, b := range bufs {
		decl := k.Bufs[b]
		sep := ","
		if i == len(bufs)-1 && !anyValid(k, bufs) {
			sep = ""
		}
		fmt.Fprintf(sb, "    __global %s* buf%d /* %s */%s\n", cType(decl.Kind), b, decl.Name, sep)
		_ = sep
	}
	// Validity masks follow the data buffers.
	validBufs := []int{}
	for _, b := range bufs {
		if k.Bufs[b].Valid {
			validBufs = append(validBufs, b)
		}
	}
	for i, b := range validBufs {
		sep := ","
		if i == len(validBufs)-1 {
			sep = ""
		}
		fmt.Fprintf(sb, "    __global char* buf%d_valid%s\n", b, sep)
	}
	sb.WriteString(") {\n")
	fmt.Fprintf(sb, "    const long gid = get_global_id(0);\n")

	// Register declarations.
	var regs []kernel.Reg
	for r := range kinds {
		if r >= kernel.FirstFree {
			regs = append(regs, r)
		}
	}
	sortRegs(regs)
	for _, r := range regs {
		fmt.Fprintf(sb, "    %s r%d = 0;\n", cType(kinds[r]), r)
	}
	if f.Locals > 0 {
		fmt.Fprintf(sb, "    __private %s loc[%d];\n", cType(localKind(f)), f.Locals)
		fmt.Fprintf(sb, "    for (long j = 0; j < %d; j++) loc[j] = %s;\n", f.Locals, cFloat(f.LocalsInit))
	}
	emitInstrs(sb, k, f, f.Pre, kinds, "    ")
	for li, l := range f.Loops {
		bound := fmt.Sprintf("%d", f.Intent)
		if l.Bound > 0 {
			bound = fmt.Sprintf("%d", l.Bound)
		}
		if l.BoundReg > 0 {
			bound = fmt.Sprintf("min((long)%s, r%d)", bound, l.BoundReg)
		}
		fmt.Fprintf(sb, "    for (long iv = 0; iv < %s; iv++) { // loop %d\n", bound, li)
		if f.Strided {
			fmt.Fprintf(sb, "        const long idx = iv * %d + gid;\n", f.Extent)
		} else {
			fmt.Fprintf(sb, "        const long idx = gid * %d + iv;\n", f.Intent)
		}
		if f.N > 0 {
			fmt.Fprintf(sb, "        if (idx >= %d) break;\n", f.N)
		}
		emitInstrs(sb, k, f, l.Body, kinds, "        ")
		sb.WriteString("    }\n")
	}
	emitInstrs(sb, k, f, f.Post, kinds, "    ")
	if len(f.PostLoopBody) > 0 {
		fmt.Fprintf(sb, "    for (long j = 0; j < %d; j++) {\n", f.Locals)
		emitInstrs(sb, k, f, f.PostLoopBody, kinds, "        ")
		sb.WriteString("    }\n")
	}
	sb.WriteString("}\n")
}

func localKind(f *kernel.Fragment) vector.Kind {
	if f.LocalsFloat {
		return vector.Float
	}
	return vector.Int
}

func anyValid(k *kernel.Kernel, bufs []int) bool {
	for _, b := range bufs {
		if k.Bufs[b].Valid {
			return true
		}
	}
	return false
}

func sortRegs(rs []kernel.Reg) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j] < rs[j-1]; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func reg(r kernel.Reg) string {
	switch r {
	case kernel.RegGID:
		return "gid"
	case kernel.RegIV:
		return "iv"
	case kernel.RegIdx:
		return "idx"
	case kernel.RegJ:
		return "j"
	}
	return fmt.Sprintf("r%d", r)
}

var binC = map[kernel.BinOp]string{
	kernel.BAdd: "%s + %s", kernel.BSub: "%s - %s", kernel.BMul: "%s * %s",
	kernel.BDiv: "%s / %s", kernel.BMod: "%s %% %s", kernel.BShl: "%s << %s",
	kernel.BAnd: "(%s != 0) && (%s != 0)", kernel.BOr: "(%s != 0) || (%s != 0)",
	kernel.BGt: "%s > %s", kernel.BGe: "%s >= %s", kernel.BEq: "%s == %s",
	kernel.BMin: "min(%s, %s)", kernel.BMax: "max(%s, %s)",
}

func emitInstrs(sb *strings.Builder, k *kernel.Kernel, f *kernel.Fragment,
	instrs []kernel.Instr, kinds map[kernel.Reg]vector.Kind, ind string) {

	for _, in := range instrs {
		switch in.Op {
		case kernel.IConstI:
			fmt.Fprintf(sb, "%s%s = %d;\n", ind, reg(in.Dst), in.Imm)
		case kernel.IConstF:
			fmt.Fprintf(sb, "%s%s = %s;\n", ind, reg(in.Dst), cFloat(in.FImm))
		case kernel.IMov:
			fmt.Fprintf(sb, "%s%s = %s;\n", ind, reg(in.Dst), reg(in.A))
		case kernel.IBin:
			tmpl, ok := binC[in.BOp]
			if !ok {
				tmpl = "/* ? */ %s + %s"
			}
			if in.Float && (in.BOp == kernel.BMin || in.BOp == kernel.BMax) {
				tmpl = strings.Replace(tmpl, "min", "fmin", 1)
				tmpl = strings.Replace(tmpl, "max", "fmax", 1)
			}
			expr := fmt.Sprintf(tmpl, reg(in.A), reg(in.B))
			fmt.Fprintf(sb, "%s%s = %s;\n", ind, reg(in.Dst), expr)
		case kernel.ISel:
			fmt.Fprintf(sb, "%s%s = (%s != 0) ? %s : %s;\n", ind, reg(in.Dst), reg(in.A), reg(in.B), reg(in.C))
		case kernel.ILoad:
			fmt.Fprintf(sb, "%s%s = buf%d[%s];\n", ind, reg(in.Dst), in.Buf, reg(in.A))
		case kernel.ILoadValid:
			if k.Bufs[in.Buf].Valid {
				fmt.Fprintf(sb, "%s%s = (%s >= 0 && %s < %d) ? buf%d_valid[%s] : 0;\n",
					ind, reg(in.Dst), reg(in.A), reg(in.A), k.Bufs[in.Buf].Size, in.Buf, reg(in.A))
			} else {
				fmt.Fprintf(sb, "%s%s = (%s >= 0 && %s < %d);\n",
					ind, reg(in.Dst), reg(in.A), reg(in.A), k.Bufs[in.Buf].Size)
			}
		case kernel.IStore:
			fmt.Fprintf(sb, "%sbuf%d[%s] = %s;\n", ind, in.Buf, reg(in.A), reg(in.B))
			if k.Bufs[in.Buf].Valid {
				if in.C > 0 {
					fmt.Fprintf(sb, "%sbuf%d_valid[%s] = (%s != 0);\n", ind, in.Buf, reg(in.A), reg(in.C))
				} else {
					fmt.Fprintf(sb, "%sbuf%d_valid[%s] = 1;\n", ind, in.Buf, reg(in.A))
				}
			}
		case kernel.IGuard:
			fmt.Fprintf(sb, "%sif (%s == 0) continue;\n", ind, reg(in.A))
		case kernel.ICastIF:
			fmt.Fprintf(sb, "%s%s = (double)%s;\n", ind, reg(in.Dst), reg(in.A))
		case kernel.ICastFI:
			fmt.Fprintf(sb, "%s%s = (long)%s;\n", ind, reg(in.Dst), reg(in.A))
		case kernel.ILoadLoc:
			fmt.Fprintf(sb, "%s%s = loc[%s];\n", ind, reg(in.Dst), reg(in.A))
		case kernel.IStoreLoc:
			fmt.Fprintf(sb, "%sloc[%s] = %s;\n", ind, reg(in.A), reg(in.B))
		}
	}
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
