// Plan-level verification (package verify's second level, implemented here
// because the step structure is private to the compiler): every step's
// buffer inputs must be resolved before they are read, bulk steps must keep
// their attribute/buffer schemas aligned across the fragment boundary, and
// scatter provenance must match the access patterns actually emitted. A
// buffer a fragment stores and nothing reads is reported as a warning: the
// plan is correct, the materialization is waste.
package compile

import (
	"fmt"

	"voodoo/internal/kernel"
	"voodoo/internal/verify"
)

// Verify statically checks the compiled plan and its kernel. It returns
// the combined kernel-, fragment- and plan-level diagnostics; an empty
// slice means the plan is well-formed. Plans produced by Compile are
// expected to verify clean — difftest and the TPC-H golden tests pin that.
func (p *Plan) Verify() []verify.Diagnostic {
	diags := verify.Kernel(p.kern)
	nbufs := len(p.kern.Bufs)
	// written tracks buffers bound or produced by an earlier step. Buffers
	// that are not declared Input are pre-allocated (zeroed) by the
	// executor, so reading them early is suspicious but defined; reading
	// an unbound Input buffer dereferences a nil buffer.
	written := make([]bool, nbufs)
	// read and storedBy track, for the dead-store rule, every buffer some
	// step, output or persist reads and the first fragment storing each.
	read := make([]bool, nbufs)
	storedBy := make([]string, nbufs)

	stepPos := func(s step) verify.Pos {
		return verify.Pos{Stmt: -1, Index: -1, Step: s.stepName()}
	}
	checkRead := func(pos verify.Pos, buf int, what string) {
		if buf < 0 || buf >= nbufs {
			diags = append(diags, verify.Diagnostic{Level: verify.Error, Pos: pos, Rule: verify.RulePlanBufRange,
				Msg: fmt.Sprintf("%s reads buf %d outside the kernel's %d declarations", what, buf, nbufs)})
			return
		}
		read[buf] = true
		if written[buf] {
			return
		}
		if p.kern.Bufs[buf].Input {
			diags = append(diags, verify.Diagnostic{Level: verify.Error, Pos: pos, Rule: verify.RuleInputUnbound,
				Msg: fmt.Sprintf("%s reads input buf %d (%s) before any bind or producing step", what, buf, p.kern.Bufs[buf].Name)})
		} else {
			diags = append(diags, verify.Diagnostic{Level: verify.Warn, Pos: pos, Rule: verify.RuleUseBeforeProd,
				Msg: fmt.Sprintf("%s reads buf %d (%s) before any producing step", what, buf, p.kern.Bufs[buf].Name)})
		}
	}
	markWritten := func(pos verify.Pos, buf int, what string) {
		if buf < 0 || buf >= nbufs {
			diags = append(diags, verify.Diagnostic{Level: verify.Error, Pos: pos, Rule: verify.RulePlanBufRange,
				Msg: fmt.Sprintf("%s writes buf %d outside the kernel's %d declarations", what, buf, nbufs)})
			return
		}
		written[buf] = true
	}

	for _, s := range p.steps {
		pos := stepPos(s)
		switch x := s.(type) {
		case *bindStep:
			markWritten(pos, x.buf, "bind")
		case *fragStep:
			reads, writes := fragBufAccess(x.f)
			for _, b := range reads {
				checkRead(pos, b, "fragment load")
			}
			for _, b := range writes {
				markWritten(pos, b, "fragment store")
				if b >= 0 && b < nbufs && storedBy[b] == "" {
					storedBy[b] = pos.Step
				}
			}
			diags = append(diags, checkScatterProv(x.f)...)
		case *bulkStep:
			if len(x.attrs) != len(x.outBufs) {
				diags = append(diags, verify.Diagnostic{Level: verify.Error, Pos: pos, Rule: verify.RulePlanSchema,
					Msg: fmt.Sprintf("bulk step has %d output attrs but %d output buffers", len(x.attrs), len(x.outBufs))})
			}
			for _, conv := range x.inputs {
				for _, b := range conv.bufs {
					checkRead(pos, b, "bulk input")
				}
			}
			for _, b := range x.outBufs {
				markWritten(pos, b, "bulk output")
			}
		case *persistStep:
			for _, b := range x.conv.bufs {
				checkRead(pos, b, "persist input")
			}
		case *outputStep:
			for _, b := range x.conv.bufs {
				checkRead(pos, b, "output")
			}
		}
	}
	for b, step := range storedBy {
		if step != "" && !read[b] {
			diags = append(diags, verify.Diagnostic{Level: verify.Warn,
				Pos: verify.Pos{Stmt: -1, Index: -1, Step: step}, Rule: verify.RuleDeadStore,
				Msg: fmt.Sprintf("stores buf %d (%s), which no step, output or persist reads", b, p.kern.Bufs[b].Name)})
		}
	}
	return diags
}

// fragBufAccess returns the buffers a fragment loads and stores, each in
// first-touch order without duplicates.
func fragBufAccess(f *kernel.Fragment) (reads, writes []int) {
	seenR := map[int]bool{}
	seenW := map[int]bool{}
	scan := func(body []kernel.Instr) {
		for _, in := range body {
			switch in.Op {
			case kernel.ILoad, kernel.ILoadValid:
				if !seenR[in.Buf] {
					seenR[in.Buf] = true
					reads = append(reads, in.Buf)
				}
			case kernel.IStore:
				if !seenW[in.Buf] {
					seenW[in.Buf] = true
					writes = append(writes, in.Buf)
				}
			}
		}
	}
	scan(f.Pre)
	for _, l := range f.Loops {
		scan(l.Body)
	}
	scan(f.Post)
	scan(f.PostLoopBody)
	return reads, writes
}

// checkScatterProv audits the fragment's scatter provenance against the
// stores it actually emits: a Virtual fragment dissolved its scatter into
// index arithmetic, so every remaining store must be sequential (VP005); a
// fragment the compiler labels a real scatter moves data to data-dependent
// positions, so at least one store must be random (VP006).
func checkScatterProv(f *kernel.Fragment) []verify.Diagnostic {
	var diags []verify.Diagnostic
	var stores, random int
	scan := func(section string, body []kernel.Instr) {
		for i, in := range body {
			if in.Op != kernel.IStore {
				continue
			}
			stores++
			if !in.Seq {
				random++
				if f.Prov.Virtual {
					diags = append(diags, verify.Diagnostic{Level: verify.Error,
						Pos:  verify.Pos{Stmt: -1, Frag: f.Name, Section: section, Index: i},
						Rule: verify.RuleVirtualStore,
						Msg:  fmt.Sprintf("virtual fragment stores randomly: %s", in)})
				}
			}
		}
	}
	scan("pre", f.Pre)
	for li, l := range f.Loops {
		scan(fmt.Sprintf("loop%d", li), l.Body)
	}
	scan("post", f.Post)
	scan("postloop", f.PostLoopBody)
	if f.Prov.Kind == "scatter" && stores > 0 && random == 0 {
		diags = append(diags, verify.Diagnostic{Level: verify.Error,
			Pos:  verify.Pos{Stmt: -1, Index: -1, Frag: f.Name},
			Rule: verify.RuleScatterSeq,
			Msg:  "scatter fragment emits only sequential stores"})
	}
	return diags
}
