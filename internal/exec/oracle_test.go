package exec

import (
	"fmt"
	"maps"
	"testing"

	"voodoo/internal/kernel"
)

// oracle is the per-element instruction interpreter: the reference the
// batch program is checked against in both of its geometries. It shares no
// code with the driver or the batch primitives — its own register file and
// scratch array, one switch over the opcodes — only the operator semantics
// (ibin, fbin) and the access classifier (FragStats.CountAccess) that define
// what an answer and a count are.
type oracle struct {
	f     *kernel.Fragment
	env   *Env
	ri    []int64
	rf    []float64
	locI  []int64
	locF  []float64
	stats FragStats
	lines Lines
}

// interpret runs every work item of f against env in element order —
// work item by work item, each one's prologue, loops, epilogue and post-loop
// body — counting every device-model event, and returns the record and the
// first fault.
func interpret(f *kernel.Fragment, env *Env) (FragStats, error) {
	n := f.NumRegs()
	o := &oracle{f: f, env: env, ri: make([]int64, n), rf: make([]float64, n), lines: Lines{}}
	if f.LocalsFloat {
		o.locF = make([]float64, f.Locals)
	} else {
		o.locI = make([]int64, f.Locals)
	}
	err := o.run(0, max(f.Extent, 1))
	return o.stats, err
}

func (o *oracle) run(lo, hi int) error {
	f := o.f
	for gid := lo; gid < hi; gid++ {
		o.ri[kernel.RegGID] = int64(gid)
		for i := range o.locI {
			o.locI[i] = int64(f.LocalsInit)
		}
		for i := range o.locF {
			o.locF[i] = f.LocalsInit
		}
		if err := o.exec(f.Pre); err != nil {
			return err
		}
		for _, loop := range f.Loops {
			bound := loop.Bound
			if bound <= 0 {
				bound = f.Intent
			}
			if loop.BoundReg > 0 {
				if dyn := int(o.ri[loop.BoundReg]); dyn < bound {
					bound = dyn
				}
			}
			for iv := 0; iv < bound; iv++ {
				o.ri[kernel.RegIV] = int64(iv)
				var idx int
				if f.Strided {
					idx = iv*f.Extent + gid
				} else {
					idx = gid*f.Intent + iv
				}
				if f.N > 0 && idx >= f.N {
					break
				}
				o.ri[kernel.RegIdx] = int64(idx)
				if err := o.exec(loop.Body); err != nil {
					return err
				}
				o.stats.Items++
			}
		}
		if err := o.exec(f.Post); err != nil {
			return err
		}
		if len(f.PostLoopBody) > 0 {
			for j := 0; j < f.Locals; j++ {
				o.ri[kernel.RegJ] = int64(j)
				if err := o.exec(f.PostLoopBody); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// exec interprets a straight-line instruction sequence. IGuard with a zero
// predicate aborts the sequence (the rest of the loop body is skipped).
func (o *oracle) exec(instrs []kernel.Instr) error {
	ri, rf := o.ri, o.rf
	for _, in := range instrs {
		switch in.Op {
		case kernel.IConstI:
			ri[in.Dst] = in.Imm
		case kernel.IConstF:
			rf[in.Dst] = in.FImm
		case kernel.IMov:
			if in.Float {
				rf[in.Dst] = rf[in.A]
			} else {
				ri[in.Dst] = ri[in.A]
			}
		case kernel.IBin:
			if in.Float {
				v, err := fbin(in.BOp, rf[in.A], rf[in.B])
				if err != nil {
					return err
				}
				rf[in.Dst] = v
				o.stats.FloatOps++
			} else {
				v, err := ibin(in.BOp, ri[in.A], ri[in.B])
				if err != nil {
					return err
				}
				ri[in.Dst] = v
				o.stats.IntOps++
			}
		case kernel.ISel:
			if in.Float {
				if ri[in.A] != 0 {
					rf[in.Dst] = rf[in.B]
				} else {
					rf[in.Dst] = rf[in.C]
				}
			} else {
				if ri[in.A] != 0 {
					ri[in.Dst] = ri[in.B]
				} else {
					ri[in.Dst] = ri[in.C]
				}
			}
			o.stats.IntOps++
		case kernel.ILoad:
			buf := o.env.Bufs[in.Buf]
			i := ri[in.A]
			if i < 0 || i >= int64(buf.Len()) {
				return fmt.Errorf("load out of bounds: buf %d idx %d len %d", in.Buf, i, buf.Len())
			}
			if in.Float {
				rf[in.Dst] = buf.F[i]
			} else {
				ri[in.Dst] = buf.I[i]
			}
			o.countAccess(in, buf)
		case kernel.ILoadValid:
			buf := o.env.Bufs[in.Buf]
			i := ri[in.A]
			if i < 0 || i >= int64(buf.Len()) {
				ri[in.Dst] = 0
			} else if buf.Valid == nil || buf.Valid[i] {
				ri[in.Dst] = 1
			} else {
				ri[in.Dst] = 0
			}
			o.countAccess(in, buf)
		case kernel.IStore:
			buf := o.env.Bufs[in.Buf]
			i := ri[in.A]
			if i < 0 || i >= int64(buf.Len()) {
				return fmt.Errorf("store out of bounds: buf %d idx %d len %d", in.Buf, i, buf.Len())
			}
			val := ri[in.B]
			fval := rf[in.B]
			valid := true
			if buf.Valid != nil && in.C > 0 {
				// C > 0 selects conditional validity: the slot holds a
				// value only if the register is non-zero. Empty slots hold
				// the reserved zero representation, exactly as the data
				// model's ε reads back.
				valid = ri[in.C] != 0
				if !valid {
					val, fval = 0, 0
				}
			}
			if in.Float {
				buf.F[i] = fval
			} else {
				buf.I[i] = val
			}
			o.stats.StoreBytes += 8
			if buf.Valid != nil {
				buf.Valid[i] = valid
				o.stats.StoreBytes++
			}
			o.countAccess(in, buf)
		case kernel.IGuard:
			o.stats.Guards++
			if ri[in.A] == 0 {
				return nil
			}
			o.stats.GuardsPass++
		case kernel.ICastIF:
			rf[in.Dst] = float64(ri[in.A])
		case kernel.ICastFI:
			ri[in.Dst] = int64(rf[in.A])
		case kernel.ILoadLoc:
			i := ri[in.A]
			if i < 0 || i >= int64(o.f.Locals) {
				return fmt.Errorf("local load out of bounds: idx %d size %d", i, o.f.Locals)
			}
			if in.Float {
				rf[in.Dst] = o.locF[i]
			} else {
				ri[in.Dst] = o.locI[i]
			}
			o.stats.LocalOps++
		case kernel.IStoreLoc:
			i := ri[in.A]
			if i < 0 || i >= int64(o.f.Locals) {
				return fmt.Errorf("local store out of bounds: idx %d size %d", i, o.f.Locals)
			}
			if in.Float {
				o.locF[i] = rf[in.B]
			} else {
				o.locI[i] = ri[in.B]
			}
			o.stats.LocalOps++
		default:
			return fmt.Errorf("unknown instruction %v", in.Op)
		}
	}
	return nil
}

// countAccess classifies one global-memory access: a mask probe of a
// maskless buffer is two integer ops, a sequential access is bandwidth, and
// any other goes through the line classifier, masks keyed apart from data.
func (o *oracle) countAccess(in kernel.Instr, buf *Buffer) {
	width := int64(8)
	if in.Op == kernel.ILoadValid {
		if buf.Valid == nil {
			o.stats.IntOps += 2
			return
		}
		width = 1
	}
	if in.Seq {
		o.stats.SeqBytes += width
		return
	}
	key := in.Buf
	if in.Op == kernel.ILoadValid {
		key |= 1 << 24
	}
	o.stats.CountAccess(o.lines, key, o.ri[in.A], int64(buf.Len())*width, width)
}

// runOracle binds in to a fresh environment for k and interprets k's single
// fragment in it.
func runOracle(t *testing.T, k *kernel.Kernel, in map[string]*Buffer) (*Env, FragStats, error) {
	t.Helper()
	env := newEnv(k)
	for name, buf := range in {
		if err := env.bind(k, name, buf); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := interpret(k.Frags[0], env)
	return env, fs, err
}

// sameCounts reports where got's work record and device-model event counters
// differ from want's, or "" when they agree.
func sameCounts(want, got FragStats) string {
	type c struct {
		name      string
		want, got int64
	}
	for _, x := range []c{
		{"Items", want.Items, got.Items}, {"StoreBytes", want.StoreBytes, got.StoreBytes},
		{"IntOps", want.IntOps, got.IntOps}, {"FloatOps", want.FloatOps, got.FloatOps},
		{"SeqBytes", want.SeqBytes, got.SeqBytes}, {"RandAccesses", want.RandAccesses, got.RandAccesses},
		{"NearAccesses", want.NearAccesses, got.NearAccesses}, {"Guards", want.Guards, got.Guards},
		{"GuardsPass", want.GuardsPass, got.GuardsPass}, {"LocalOps", want.LocalOps, got.LocalOps},
	} {
		if x.want != x.got {
			return fmt.Sprintf("%s = %d, oracle counts %d", x.name, x.got, x.want)
		}
	}
	if !maps.Equal(want.RandByBuf, got.RandByBuf) {
		return fmt.Sprintf("RandByBuf = %v, oracle counts %v", got.RandByBuf, want.RandByBuf)
	}
	return ""
}
