package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"voodoo/internal/kernel"
	"voodoo/internal/vector"
	"voodoo/internal/verify"
)

// FuzzBatchVsInterp fuzzes the batch program, in tiles and in element
// order, against the per-element interpreter of oracle_test.go with
// byte-decoded fragments that use the whole fragment IR: prologue, one or
// two loops with static and dynamic bounds, guards anywhere, a scratch
// array, epilogue and post-loop body, blocked or strided, with a ragged N.
// A quarter of them are one to three work items of a long Intent, so that
// tiles batch along iterations, and the decoder goes out of its way to emit
// what a tile can get wrong: accumulators, registers redefined after a
// carried read, scratch read-modify-write chains on a handful of slots (keys
// collide inside a tile and across chains), guards on free and on carried
// values between them, and dynamic bounds far shorter than a tile. Half the
// loops with a scratch array are bodies of scratch reductions alone, into
// slot ranges that are disjoint or shared, so tiles take both the
// reductions' tile-wide path and its fallback. A third of the loops open
// with a guard over an and of conjuncts, whose windows may hold a division,
// a gather not proven in range or a load of a buffer shorter than N, so
// tiles take early points and every way of being refused them.
// Whatever the verifier passes must leave every buffer, Items and
// StoreBytes bit-identical to the oracle's in three legs at one worker —
// tiles, element order, and a counted run, whose every device-model event
// counter must equal the oracle's too — and, work items being independent,
// in tiles at three workers, over two-item morsels and under the cut rule;
// when the oracle faults, each leg must report the same error text. The
// decoder is built so that most fragments meet the fragment contract; one
// that breaks it must be refused on every path with the verifier's
// diagnostic, and one the verifier rejects for another rule is skipped.
func FuzzBatchVsInterp(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k, in := decodeFragment(data)
		frag := k.Frags[0]
		diags := verify.Fragment(frag, k.Bufs)
		if v := verify.BatchFacts(frag).Violation; v != nil {
			if !slices.Contains(diags, *v) {
				t.Fatalf("verify.Fragment reports %v, not the contract violation %v\n%s", diags, *v, k)
			}
			requireRefused(t, k, in, *v)
			return
		}
		for _, d := range diags {
			if d.Level == verify.Error {
				t.Skip(d)
			}
		}
		run := func(par Par, count bool) (*Env, FragStats, error) {
			env := newEnv(k)
			for name, buf := range in {
				if err := env.bind(k, name, buf); err != nil {
					t.Fatal(err)
				}
			}
			var fs FragStats
			err := RunFragment(context.Background(), frag, env, par, &fs, count)
			return env, fs, err
		}
		oracle, want, werr := runOracle(t, k, in)
		for _, leg := range []struct {
			name  string
			par   Par
			count bool
		}{
			{"tiles", Par{Workers: 1}, false},
			{"element-order", Par{Workers: 1, NoSpecialize: true}, false},
			{"counted", Par{Workers: 1}, true},
		} {
			got, rec, gerr := run(leg.par, leg.count)
			if werr != nil || gerr != nil {
				if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
					t.Fatalf("errors differ (%s):\noracle: %v\n%s: %v\n%s", rec.Specialized, werr, leg.name, gerr, k)
				}
				continue
			}
			requireSameBufs(t, k, oracle, got, leg.name+" workers=1\n"+k.String())
			if leg.count {
				if d := sameCounts(want, rec); d != "" {
					t.Fatalf("counted run: %s\n%s", d, k)
				}
			} else if rec.Items != want.Items || rec.StoreBytes != want.StoreBytes {
				t.Fatalf("%s (%s): items=%d store_bytes=%d, oracle reports %d / %d\n%s",
					leg.name, rec.Specialized, rec.Items, rec.StoreBytes, want.Items, want.StoreBytes, k)
			}
		}
		if werr != nil {
			return
		}
		// Three workers, cut two ways: two-item morsels, and whatever the cut
		// rule makes of the shape (most decoded fragments sit below its floor
		// and run as one range; the big ones are cut by declared work).
		for _, p := range []Par{{Workers: 3, Morsel: 2}, {Workers: 3}} {
			par, prec, perr := run(p, false)
			if perr != nil {
				t.Fatalf("parallel run %+v failed: %v\n%s", p, perr, k)
			}
			requireSameBufs(t, k, oracle, par, fmt.Sprintf("%+v\n%s", p, k))
			if prec.Items != want.Items || prec.StoreBytes != want.StoreBytes {
				t.Fatalf("parallel %+v %s: items=%d store_bytes=%d, oracle reports %d / %d\n%s",
					p, prec.Specialized, prec.Items, prec.StoreBytes, want.Items, want.StoreBytes, k)
			}
		}
	})
}

// TestContractAgreesOnFuzzSeeds: on every FuzzBatchVsInterp seed the
// verifier and the executor agree on the fragment contract — RunFragment
// refuses exactly the fragments verify.Fragment reports a contract rule for,
// with that diagnostic, and runs the rest — and the seeds hold both kinds.
func TestContractAgreesOnFuzzSeeds(t *testing.T) {
	contract := map[string]bool{verify.RuleUseBeforeDef: true, verify.RuleSpecialWrite: true,
		verify.RuleRWOverlap: true, verify.RuleBadInstr: true}
	refused, ran := 0, 0
	for i, seed := range fuzzSeeds() {
		k, in := decodeFragment(seed)
		var broken []verify.Diagnostic
		for _, d := range verify.Fragment(k.Frags[0], k.Bufs) {
			if contract[d.Rule] {
				broken = append(broken, d)
			}
		}
		env := newEnv(k)
		for name, buf := range in {
			if err := env.bind(k, name, buf); err != nil {
				t.Fatal(err)
			}
		}
		err := RunFragment(context.Background(), k.Frags[0], env, Par{Workers: 1}, nil, false)
		var ce *ContractError
		switch {
		case errors.As(err, &ce):
			refused++
			if len(broken) != 1 || broken[0] != ce.Diag {
				t.Errorf("seed %d: RunFragment refuses with %v, verify.Fragment reports %v", i, ce.Diag, broken)
			}
		case len(broken) > 0:
			t.Errorf("seed %d: verify.Fragment reports %v, RunFragment ran it (error %v)", i, broken, err)
		default:
			ran++
		}
	}
	t.Logf("seeds: %d refused, %d ran", refused, ran)
	if refused == 0 || ran == 0 {
		t.Errorf("seed corpus: %d refused and %d ran; want both", refused, ran)
	}
}

// fuzzSeeds is FuzzBatchVsInterp's seed corpus, which plain go test runs.
func fuzzSeeds() [][]byte {
	rng := rand.New(rand.NewSource(17))
	seeds := make([][]byte, 128)
	for i := range seeds {
		seeds[i] = make([]byte, 96)
		rng.Read(seeds[i])
	}
	return seeds
}

// TestFuzzSeedsReachBothReductionPaths: the seed corpus alone — what plain
// go test runs of FuzzBatchVsInterp — decodes loop bodies whose scratch
// reductions run a tile at a time and bodies whose reductions meet in a slot
// and fall back to the carried pass, so both are checked against the
// oracle on every run of the suite.
func TestFuzzSeedsReachBothReductionPaths(t *testing.T) {
	var wide, carried int64
	for _, seed := range fuzzSeeds() {
		k, in := decodeFragment(seed)
		if verify.HasErrors(verify.Fragment(k.Frags[0], k.Bufs)) {
			continue
		}
		env := newEnv(k)
		for name, buf := range in {
			if err := env.bind(k, name, buf); err != nil {
				t.Fatal(err)
			}
		}
		var fs FragStats
		if RunFragment(context.Background(), k.Frags[0], env, Par{Workers: 1}, &fs, false) == nil {
			wide, carried = wide+min(fs.AccWide, 1), carried+min(fs.AccCarried, 1)
		}
	}
	t.Logf("seeds: %d ran reductions wide, %d fell back", wide, carried)
	if wide == 0 || carried == 0 {
		t.Errorf("seed corpus: %d seeds ran scratch reductions wide and %d fell back; want both", wide, carried)
	}
}

// TestFuzzSeedsReachEarlyPoints: the seed corpus alone decodes guards whose
// conjuncts the tiles apply early, and guards with each hazard in the
// window of an earlier conjunct — a division, a gather probed through
// another buffer's validity, a load of a buffer shorter than N (a run-time
// refusal) — so FuzzBatchVsInterp checks both against the oracle on every
// run of the suite.
func TestFuzzSeedsReachEarlyPoints(t *testing.T) {
	var applied int
	reached := map[conjunctShape]int{}
	for _, seed := range fuzzSeeds() {
		d, k, in := decode(seed)
		if verify.HasErrors(verify.Fragment(k.Frags[0], k.Bufs)) {
			continue
		}
		for _, sh := range []conjunctShape{shapeGuard, shapeDiv, shapeUnproven, shapeShort} {
			if d.shapes&sh != 0 {
				reached[sh]++
			}
		}
		env := newEnv(k)
		for name, buf := range in {
			if err := env.bind(k, name, buf); err != nil {
				t.Fatal(err)
			}
		}
		var fs FragStats
		if RunFragment(context.Background(), k.Frags[0], env, Par{Workers: 1}, &fs, false) == nil && fs.Early > 0 {
			applied++
		}
	}
	t.Logf("seeds: %d applied early points; guards %d, divisions %d, unproven gathers %d, short loads %d",
		applied, reached[shapeGuard], reached[shapeDiv], reached[shapeUnproven], reached[shapeShort])
	if applied == 0 || reached[shapeDiv] == 0 || reached[shapeUnproven] == 0 || reached[shapeShort] == 0 {
		t.Errorf("seed corpus: %d seeds applied early points, %d divided, %d gathered unproven, %d loaded short; want each",
			applied, reached[shapeDiv], reached[shapeUnproven], reached[shapeShort])
	}
}

// fragDecoder maps a byte string onto one fragment. It tracks, per register
// file, the registers defined on every path to the instruction being
// emitted — the dominance the fragment contract demands — and draws operands
// from those, so most decoded fragments meet it; now and then it draws from
// every register ever defined instead, which the verifier must then reject
// and the executor refuse.
type fragDecoder struct {
	data []byte
	pos  int
	tpos int // bytes tail has read

	k    *kernel.Kernel
	f    *kernel.Fragment
	defI []kernel.Reg // dominating definitions, integer file
	defF []kernel.Reg
	allI []kernel.Reg // every register ever defined
	allF []kernel.Reg
	next kernel.Reg

	elems        int // extent × intent: the index space of RegIdx
	inI, inF     int
	elemI, elemF int // one slot per element, stored at RegIdx
	itemI, itemF int // one slot per work item, stored at RegGID
	slotF        int // one slot per (work item, scratch slot), post-loop body only
	// regions > 0 decodes a loop body of scratch reductions into that many
	// disjoint slot ranges, with nothing else carried beside them.
	regions int
	// inV is a small masked buffer guards gather from, short one a slot
	// shorter than N; shapes notes what conjuncts has emitted.
	inV, short int
	shapes     conjunctShape
}

// conjunctShape is a set of the things conjuncts may put in the window of
// an earlier conjunct.
type conjunctShape uint8

const (
	shapeGuard    conjunctShape = 1 << iota // a guard over an and of conjuncts
	shapeDiv                                // a division, which may fault
	shapeUnproven                           // a gather probed through another buffer's validity
	shapeShort                              // a sequential load of short
)

func (d *fragDecoder) byte() int {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return int(b)
}

// tail reads from the other end of data, past whatever byte reads: choices
// drawn from it leave the rest of the decoding as it was without them, so
// the seed corpus keeps its older fragments.
func (d *fragDecoder) tail() int {
	if d.tpos >= len(d.data) {
		return 0
	}
	d.tpos++
	return int(d.data[len(d.data)-d.tpos])
}

func (d *fragDecoder) fresh() kernel.Reg {
	d.next++
	return d.next - 1
}

// section is which part of the fragment is being decoded; it decides which
// special registers are readable and where stores may go.
type section int

const (
	secPre section = iota
	secLoop
	secPost
	secPostLoop
)

// intOperand picks a readable integer register.
func (d *fragDecoder) intOperand(sec section) kernel.Reg {
	pool := append([]kernel.Reg{kernel.RegGID}, d.defI...)
	switch sec {
	case secLoop:
		pool = append(pool, kernel.RegIV, kernel.RegIdx)
	case secPostLoop:
		pool = append(pool, kernel.RegJ)
	}
	if len(d.allI) > 0 && d.byte()%24 == 0 {
		pool = d.allI // possibly undominated
	}
	return pool[d.byte()%len(pool)]
}

// fltOperand picks a readable float register, defining a constant first
// when there is none.
func (d *fragDecoder) fltOperand(out *[]kernel.Instr) kernel.Reg {
	if len(d.defF) == 0 {
		r := d.fresh()
		*out = append(*out, kernel.Instr{Op: kernel.IConstF, Dst: r, FImm: float64(d.byte()%7) - 2.5})
		d.defF, d.allF = append(d.defF, r), append(d.allF, r)
	}
	return d.defF[d.byte()%len(d.defF)]
}

// dst picks the register an instruction defines: a new one, or — which is
// what makes accumulators and cursors — one already defined.
func (d *fragDecoder) dst(flt bool) kernel.Reg {
	defs, all := &d.defI, &d.allI
	if flt {
		defs, all = &d.defF, &d.allF
	}
	if len(*defs) > 0 && d.byte()%3 == 0 {
		return (*defs)[d.byte()%len(*defs)]
	}
	r := d.fresh()
	*defs, *all = append(*defs, r), append(*all, r)
	return r
}

// bounded emits r = x mod m for a readable x, an in-range index for a
// buffer or scratch array of m slots.
func (d *fragDecoder) bounded(out *[]kernel.Instr, sec section, m int) kernel.Reg {
	x := d.intOperand(sec)
	c, r := d.fresh(), d.fresh()
	*out = append(*out,
		kernel.Instr{Op: kernel.IConstI, Dst: c, Imm: int64(m)},
		kernel.Instr{Op: kernel.IBin, BOp: kernel.BMod, Dst: r, A: x, B: c})
	d.allI = append(d.allI, c, r)
	d.defI = append(d.defI, c, r)
	return r
}

var fuzzIntOps = []kernel.BinOp{kernel.BAdd, kernel.BSub, kernel.BMul, kernel.BGt, kernel.BGe, kernel.BEq,
	kernel.BMin, kernel.BMax, kernel.BAnd, kernel.BOr, kernel.BAdd, kernel.BGt, kernel.BMod, kernel.BDiv, kernel.BShl}
var fuzzFltOps = []kernel.BinOp{kernel.BAdd, kernel.BSub, kernel.BMul, kernel.BGt, kernel.BGe, kernel.BEq,
	kernel.BMin, kernel.BMax, kernel.BDiv, kernel.BAnd}

// reduction decodes one instruction of a scratch-reduction body: mostly
// reductions t = loc[i]; u = op(t, x); loc[i] = u into one of the slot
// ranges — two chains in one range may meet in a slot, in two they cannot —
// and otherwise free instructions that define fresh registers only.
func (d *fragDecoder) reduction(out *[]kernel.Instr, sec section) {
	fresh := func(flt bool) kernel.Reg {
		r := d.fresh()
		if flt {
			d.defF, d.allF = append(d.defF, r), append(d.allF, r)
		} else {
			d.defI, d.allI = append(d.defI, r), append(d.allI, r)
		}
		return r
	}
	switch d.byte() % 6 {
	case 0:
		a, b := d.intOperand(sec), d.intOperand(sec)
		*out = append(*out, kernel.Instr{Op: kernel.IBin, BOp: fuzzIntOps[d.byte()%8], Dst: fresh(false), A: a, B: b})
	case 1:
		a, b := d.fltOperand(out), d.fltOperand(out)
		*out = append(*out, kernel.Instr{Op: kernel.IBin, BOp: fuzzFltOps[d.byte()%8], Dst: fresh(true), A: a, B: b, Float: true})
	case 2:
		*out = append(*out, kernel.Instr{Op: kernel.ILoad, Dst: fresh(true), A: kernel.RegIdx, Buf: d.inF, Seq: true, Float: true})
	default:
		w := max(1, d.f.Locals/d.regions)
		x, r := d.intOperand(sec), d.byte()%d.regions
		c, m, o, i := d.fresh(), d.fresh(), d.fresh(), d.fresh()
		tt, u := d.fresh(), d.fresh() // read by the chain alone: in no pool
		*out = append(*out,
			kernel.Instr{Op: kernel.IConstI, Dst: c, Imm: int64(w)},
			kernel.Instr{Op: kernel.IBin, BOp: kernel.BMod, Dst: m, A: x, B: c},
			kernel.Instr{Op: kernel.IConstI, Dst: o, Imm: int64(r * w)},
			kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: i, A: m, B: o},
			kernel.Instr{Op: kernel.ILoadLoc, Dst: tt, A: i, Float: true},
			kernel.Instr{Op: kernel.IBin, BOp: fuzzFltOps[d.byte()%5], Dst: u, A: tt, B: d.fltOperand(out), Float: true},
			kernel.Instr{Op: kernel.IStoreLoc, A: i, B: u, Float: true})
	}
}

// conjuncts decodes, from the tail, a guard over the and of two to four
// conjuncts, each a comparison: of a sequential load, of a gather selected
// by its own validity (whose probe is a conjunct too) or, now and then, by
// another buffer's, of a division whose divisor may be zero, or of a load
// of short. The tiles may apply a conjunct early only when nothing between
// it and the guard can fault on the rows it drops. Its registers enter no
// operand pool, so the rest of the decoding is as it was without the guard.
func (d *fragDecoder) conjuncts(out *[]kernel.Instr) {
	fresh := d.fresh
	load := func(buf int) kernel.Reg {
		x := fresh()
		*out = append(*out, kernel.Instr{Op: kernel.ILoad, Dst: x, A: kernel.RegIdx, Buf: buf, Seq: true})
		return x
	}
	cmp := func(x kernel.Reg) kernel.Reg {
		k, c := fresh(), fresh()
		*out = append(*out,
			kernel.Instr{Op: kernel.IConstI, Dst: k, Imm: int64(d.tail()%9) - 3},
			kernel.Instr{Op: kernel.IBin, BOp: kernel.BGt, Dst: c, A: x, B: k})
		return c
	}
	d.shapes |= shapeGuard
	var leaves []kernel.Reg
	// note records a hazard that lies in an earlier conjunct's window.
	note := func(sh conjunctShape) {
		if len(leaves) > 0 {
			d.shapes |= sh
		}
	}
	for range 2 + d.tail()%3 {
		switch d.tail() % 5 {
		case 0, 1:
			leaves = append(leaves, cmp(load(d.inI)))
		case 2:
			probe := d.inV
			if d.tail()%4 == 0 {
				probe = d.inI
				note(shapeUnproven)
			}
			x := load(d.inI)
			v, z, sel, g := fresh(), fresh(), fresh(), fresh()
			*out = append(*out,
				kernel.Instr{Op: kernel.ILoadValid, Dst: v, A: x, Buf: probe},
				kernel.Instr{Op: kernel.IConstI, Dst: z, Imm: int64(d.tail() % 3)},
				kernel.Instr{Op: kernel.ISel, Dst: sel, A: v, B: x, C: z},
				kernel.Instr{Op: kernel.ILoad, Dst: g, A: sel, Buf: d.inV})
			leaves = append(leaves, v, cmp(g))
		case 3:
			var by kernel.Reg
			if d.tail()%2 == 0 {
				by = load(d.inI) // zero now and then
			} else {
				by = fresh()
				*out = append(*out, kernel.Instr{Op: kernel.IConstI, Dst: by, Imm: int64(1 + d.tail()%3)})
			}
			y := fresh()
			*out = append(*out, kernel.Instr{Op: kernel.IBin, BOp: kernel.BDiv, Dst: y, A: load(d.inI), B: by})
			note(shapeDiv)
			leaves = append(leaves, cmp(y))
		default:
			note(shapeShort)
			leaves = append(leaves, cmp(load(d.short)))
		}
	}
	t := leaves[0]
	for _, c := range leaves[1:] {
		and := fresh()
		*out = append(*out, kernel.Instr{Op: kernel.IBin, BOp: kernel.BAnd, Dst: and, A: t, B: c})
		t = and
	}
	*out = append(*out, kernel.Instr{Op: kernel.IGuard, A: t})
}

// instrs decodes up to n instructions of one section. Definitions made
// behind a guard stop dominating at the end of the section; the caller
// restores its own view.
func (d *fragDecoder) instrs(sec section, n int) []kernel.Instr {
	var out []kernel.Instr
	if sec == secLoop && d.regions == 0 && d.tail()%3 == 0 {
		d.conjuncts(&out)
	}
	for i := 0; i < n; i++ {
		if sec == secLoop && d.regions > 0 {
			d.reduction(&out, sec)
			continue
		}
		switch op := d.byte() % 24; op {
		case 0:
			out = append(out, kernel.Instr{Op: kernel.IConstI, Dst: d.dst(false), Imm: int64(d.byte()%9) - 2})
		case 1:
			out = append(out, kernel.Instr{Op: kernel.IConstF, Dst: d.dst(true), FImm: float64(d.byte()%9)/2 - 1})
		case 2:
			a := d.intOperand(sec)
			out = append(out, kernel.Instr{Op: kernel.IMov, Dst: d.dst(false), A: a})
		case 3, 4, 5:
			a, b := d.intOperand(sec), d.intOperand(sec)
			out = append(out, kernel.Instr{Op: kernel.IBin, BOp: fuzzIntOps[d.byte()%len(fuzzIntOps)], Dst: d.dst(false), A: a, B: b})
		case 6, 7:
			a, b := d.fltOperand(&out), d.fltOperand(&out)
			out = append(out, kernel.Instr{Op: kernel.IBin, BOp: fuzzFltOps[d.byte()%len(fuzzFltOps)], Dst: d.dst(true), A: a, B: b, Float: true})
		case 8:
			c, a, b := d.intOperand(sec), d.intOperand(sec), d.intOperand(sec)
			out = append(out, kernel.Instr{Op: kernel.ISel, Dst: d.dst(false), A: c, B: a, C: b})
		case 9:
			c, a, b := d.intOperand(sec), d.fltOperand(&out), d.fltOperand(&out)
			out = append(out, kernel.Instr{Op: kernel.ISel, Dst: d.dst(true), A: c, B: a, C: b, Float: true})
		case 10:
			a := d.intOperand(sec)
			out = append(out, kernel.Instr{Op: kernel.ICastIF, Dst: d.dst(true), A: a})
		case 11:
			a := d.fltOperand(&out)
			out = append(out, kernel.Instr{Op: kernel.ICastFI, Dst: d.dst(false), A: a})
		case 12, 13: // load: sequential inside loops, else a gather
			a, seq := kernel.RegIdx, true
			if sec != secLoop || d.byte()%3 == 0 {
				a, seq = d.bounded(&out, sec, d.elems), false
			}
			switch d.byte() % 3 {
			case 0:
				out = append(out, kernel.Instr{Op: kernel.ILoad, Dst: d.dst(false), A: a, Buf: d.inI, Seq: seq})
			case 1:
				out = append(out, kernel.Instr{Op: kernel.ILoad, Dst: d.dst(true), A: a, Buf: d.inF, Seq: seq, Float: true})
			default:
				out = append(out, kernel.Instr{Op: kernel.ILoadValid, Dst: d.dst(false), A: a, Buf: d.inI, Seq: seq})
			}
		case 14:
			out = append(out, kernel.Instr{Op: kernel.IGuard, A: d.intOperand(sec)})
		case 15, 16: // scratch array
			if d.f.Locals == 0 {
				continue
			}
			a := d.bounded(&out, sec, d.f.Locals)
			if d.byte()%2 == 0 {
				out = append(out, kernel.Instr{Op: kernel.ILoadLoc, Dst: d.dst(true), A: a, Float: true})
			} else {
				b := d.fltOperand(&out)
				out = append(out, kernel.Instr{Op: kernel.IStoreLoc, A: a, B: b, Float: true})
			}
		case 17: // accumulate: a reduction while nothing else touches the register
			if len(d.defI) == 0 {
				continue
			}
			acc := d.defI[d.byte()%len(d.defI)]
			out = append(out, kernel.Instr{Op: kernel.IBin, BOp: fuzzIntOps[d.byte()%len(fuzzIntOps)], Dst: acc, A: acc, B: d.intOperand(sec)})
		case 18, 19: // scratch read-modify-write chain on a data-dependent slot
			if d.f.Locals == 0 {
				continue
			}
			a, x := d.bounded(&out, sec, d.f.Locals), d.dst(true)
			out = append(out,
				kernel.Instr{Op: kernel.ILoadLoc, Dst: x, A: a, Float: true},
				kernel.Instr{Op: kernel.IBin, BOp: fuzzFltOps[d.byte()%len(fuzzFltOps)], Dst: x, A: x, B: d.fltOperand(&out), Float: true},
				kernel.Instr{Op: kernel.IStoreLoc, A: a, B: x, Float: true})
		case 20: // guard on a value read back from the scratch array
			if d.f.Locals == 0 {
				continue
			}
			a, x, t := d.bounded(&out, sec, d.f.Locals), d.dst(true), d.dst(false)
			out = append(out,
				kernel.Instr{Op: kernel.ILoadLoc, Dst: x, A: a, Float: true},
				kernel.Instr{Op: kernel.ICastFI, Dst: t, A: x},
				kernel.Instr{Op: kernel.IGuard, A: t})
		default: // store, to a slot no other work item writes
			flt := d.byte()%2 == 0
			a, bufI, bufF := kernel.RegGID, d.itemI, d.itemF
			switch {
			case sec == secLoop && d.byte()%3 != 0:
				a, bufI, bufF = kernel.RegIdx, d.elemI, d.elemF
			case sec == secPostLoop:
				w, at := d.fresh(), d.fresh()
				out = append(out,
					kernel.Instr{Op: kernel.IConstI, Dst: w, Imm: int64(d.f.Locals)},
					kernel.Instr{Op: kernel.IBin, BOp: kernel.BMul, Dst: at, A: kernel.RegGID, B: w},
					kernel.Instr{Op: kernel.IBin, BOp: kernel.BAdd, Dst: at, A: at, B: kernel.RegJ})
				d.allI = append(d.allI, w, at)
				d.defI = append(d.defI, w, at)
				a, flt, bufF = at, true, d.slotF
			}
			if flt {
				out = append(out, kernel.Instr{Op: kernel.IStore, A: a, B: d.fltOperand(&out), Buf: bufF, Seq: true, Float: true})
			} else {
				st := kernel.Instr{Op: kernel.IStore, A: a, B: d.intOperand(sec), Buf: bufI, Seq: true}
				if d.byte()%2 == 0 {
					st.C = d.intOperand(sec) // conditional validity
					if st.C < kernel.FirstFree {
						st.C = 0
					}
				}
				out = append(out, st)
			}
		}
	}
	return out
}

// dominating returns the definitions that dominate whatever follows body:
// the first before entries of defs, which dominated its entry, plus what
// body defines in the given file ahead of its first guard.
func dominating(body []kernel.Instr, flt bool, before int, defs []kernel.Reg) []kernel.Reg {
	keep := append([]kernel.Reg{}, defs[:before]...)
	for _, in := range body {
		if in.Op == kernel.IGuard {
			break
		}
		if r, f, ok := in.Def(); ok && f == flt {
			keep = append(keep, r)
		}
	}
	return keep
}

func decodeFragment(data []byte) (*kernel.Kernel, map[string]*Buffer) {
	_, k, in := decode(data)
	return k, in
}

// decode is decodeFragment, with the decoder's notes.
func decode(data []byte) (*fragDecoder, *kernel.Kernel, map[string]*Buffer) {
	d := &fragDecoder{data: data, k: &kernel.Kernel{}, next: kernel.FirstFree}
	extent, intent := 4+d.byte()%23, 1+d.byte()%7
	if d.byte()%4 == 0 {
		// A few work items of many iterations: tiles batch along Intent.
		extent, intent = 1+extent%3, 1+(intent*53+extent*7)%400
	}
	d.elems = extent * intent
	n := d.elems - d.byte()%(2*intent+1)
	f := &kernel.Fragment{Name: "fuzz", Extent: extent, Intent: intent, N: max(n, 0), Strided: d.byte()%4 == 0}
	if d.byte()%2 == 0 {
		f.Locals, f.LocalsFloat, f.LocalsInit = 1+d.byte()%5, true, float64(d.byte()%3)-0.5
	}
	d.f = f
	decl := func(name string, kind vector.Kind, size int, valid, input bool) int {
		return d.k.AddBuf(kernel.BufDecl{Name: name, Kind: kind, Size: size, Valid: valid, Input: input})
	}
	d.inI = decl("inI", vector.Int, d.elems, false, true)
	d.inF = decl("inF", vector.Float, d.elems, false, true)
	d.elemI = decl("elemI", vector.Int, d.elems, d.byte()%2 == 0, false)
	d.elemF = decl("elemF", vector.Float, d.elems, false, false)
	d.itemI = decl("itemI", vector.Int, extent, d.byte()%2 == 0, false)
	d.itemF = decl("itemF", vector.Float, extent, false, false)
	d.slotF = decl("slotF", vector.Float, extent*max(f.Locals, 1), false, false)
	d.inV = decl("inV", vector.Int, 13, true, true)
	d.short = decl("short", vector.Int, max(f.N-1, 0), false, true)

	f.Pre = d.instrs(secPre, d.byte()%5)
	preI := dominating(f.Pre, false, 0, d.defI)
	preF := dominating(f.Pre, true, 0, d.defF)
	for l := 0; l < 1+d.byte()%2; l++ {
		d.defI, d.defF = append([]kernel.Reg{}, preI...), append([]kernel.Reg{}, preF...)
		loop := kernel.Loop{Bound: d.byte() % (intent + 1)}
		if len(preI) > 0 && d.byte()%3 == 0 {
			loop.BoundReg = preI[d.byte()%len(preI)]
		}
		if f.Locals > 0 && d.tail()%2 == 0 {
			d.regions = 1 + d.tail()%min(3, f.Locals)
		}
		loop.Body = d.instrs(secLoop, 1+d.byte()%9)
		d.regions = 0
		f.Loops = append(f.Loops, loop)
	}
	d.defI, d.defF = append([]kernel.Reg{}, preI...), append([]kernel.Reg{}, preF...)
	f.Post = d.instrs(secPost, d.byte()%4)
	if f.Locals > 0 && d.byte()%2 == 0 {
		d.defI = dominating(f.Post, false, len(preI), d.defI)
		d.defF = dominating(f.Post, true, len(preF), d.defF)
		f.PostLoopBody = d.instrs(secPostLoop, 1+d.byte()%4)
	}
	d.k.Frags = []*kernel.Fragment{f}

	ints, flts := make([]int64, d.elems), make([]float64, d.elems)
	valid := make([]bool, d.elems)
	for i := range ints {
		ints[i] = int64((i*37+d.byte())%29) - 6
		flts[i] = float64((i*13)%11)/4 - 1
		valid[i] = (i+d.byte())%5 != 0
	}
	if d.elems > 3 {
		flts[1], flts[3] = math.NaN(), math.Inf(1)
	}
	inI := &Buffer{Kind: vector.Int, I: ints}
	if d.byte()%2 == 0 {
		inI.Valid = valid
	}
	inV := &Buffer{Kind: vector.Int, I: make([]int64, 13), Valid: make([]bool, 13)}
	for j := range inV.I {
		inV.I[j], inV.Valid[j] = int64(j%7-2), j%4 != 1
	}
	return d, d.k, map[string]*Buffer{"inI": inI, "inF": {Kind: vector.Float, F: flts}, "inV": inV,
		"short": {Kind: vector.Int, I: ints[:max(f.N-1, 0)]}}
}
