package compile

import (
	"testing"

	"voodoo/internal/core"
	"voodoo/internal/interp"
	"voodoo/internal/kernel"
	"voodoo/internal/vector"
	"voodoo/internal/verify"
)

// Mutation testing for the static verifier: each case compiles a known-good
// plan, corrupts exactly one field (swap a register, drop a schema column,
// break a loop bound, ...), and requires the verifier to flag the corruption
// with the documented rule ID. The suite closes with a catch-rate gate: at
// least 95% of the single-field corruptions must be caught statically.

// mutSelectPlan compiles Figure 1's selection (FoldSelect + Materialize),
// which yields bind steps, a select fragment with a cursor store, and a
// persist step. Predication adds a masked (C > 0) store.
func mutSelectPlan(t *testing.T, opt Options) *Plan {
	t.Helper()
	st := interp.MemStorage{"t": intVec("v", 5, 0, 3, 0, 0, 9, 1, 0, 0, 2, 8, 0)}
	b := core.NewBuilder()
	in := b.Load("t")
	pred := b.Greater(in, b.Constant(2))
	sel := b.FoldSelect(pred, "", "")
	b.Materialize(sel, sel, "")
	return mutCompile(t, b, st, opt)
}

// mutGroupByPlan compiles a grouped aggregation (Partition + Scatter +
// grouped FoldSum), which yields a bulk partition step, a virtual group-fold
// fragment with locals and a post-loop body, and a group-reduce fragment.
func mutGroupByPlan(t *testing.T) *Plan {
	t.Helper()
	n := 40
	groups := make([]int64, n)
	vals := make([]float64, n)
	for i := range groups {
		groups[i] = int64(i % 5)
		vals[i] = float64(i)
	}
	st := interp.MemStorage{"t": vector.New(n).
		Set("g", vector.NewInt(groups)).
		Set("v", vector.NewFloat(vals))}
	b := core.NewBuilder()
	in := b.Load("t")
	pivots := b.RangeN(0, 5, 1)
	pos := b.Partition("pos", in, "g", pivots, "")
	withPos := b.Upsert(in, "pos", pos, "pos")
	scattered := b.Scatter(in, in, "", withPos, "pos")
	b.FoldSum(scattered, "g", "v")
	return mutCompile(t, b, st, Options{})
}

// mutScatterPlan materializes the scattered vector so the compiler must
// emit a real scatter fragment (Prov.Kind == "scatter", random stores)
// instead of dissolving it into the grouped fold.
func mutScatterPlan(t *testing.T) *Plan {
	t.Helper()
	n := 40
	groups := make([]int64, n)
	vals := make([]int64, n)
	for i := range groups {
		groups[i] = int64(i % 5)
		vals[i] = int64(i)
	}
	st := interp.MemStorage{"t": vector.New(n).
		Set("g", vector.NewInt(groups)).
		Set("v", vector.NewInt(vals))}
	b := core.NewBuilder()
	in := b.Load("t")
	pivots := b.RangeN(0, 5, 1)
	pos := b.Partition("pos", in, "g", pivots, "")
	withPos := b.Upsert(in, "pos", pos, "pos")
	scattered := b.Scatter(in, in, "", withPos, "pos")
	b.Materialize(scattered, scattered, "")
	return mutCompile(t, b, st, Options{})
}

// mutPartitionPlan materializes partition positions directly, forcing the
// compiler to spill the partition through a bulk step (the histogram /
// prefix-sum evaluation crosses the fragment boundary as attrs + outBufs).
func mutPartitionPlan(t *testing.T) *Plan {
	t.Helper()
	n := 40
	groups := make([]int64, n)
	for i := range groups {
		groups[i] = int64(i % 5)
	}
	st := interp.MemStorage{"t": vector.New(n).Set("g", vector.NewInt(groups))}
	b := core.NewBuilder()
	in := b.Load("t")
	pivots := b.RangeN(0, 5, 1)
	pos := b.Partition("pos", in, "g", pivots, "")
	b.Materialize(pos, pos, "")
	return mutCompile(t, b, st, Options{})
}

func mutCompile(t *testing.T, b *core.Builder, st Storage, opt Options) *Plan {
	t.Helper()
	p, err := Compile(b.Program(), st, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// eachInstr visits every instruction of every fragment (pre, loop bodies,
// post, post-loop body) with a mutable pointer, stopping after the first
// visit for which fn reports the mutation was applied.
func eachInstr(k *kernel.Kernel, fn func(f *kernel.Fragment, in *kernel.Instr) bool) bool {
	for _, f := range k.Frags {
		secs := [][]kernel.Instr{f.Pre}
		for i := range f.Loops {
			secs = append(secs, f.Loops[i].Body)
		}
		secs = append(secs, f.Post, f.PostLoopBody)
		for _, sec := range secs {
			for i := range sec {
				if fn(f, &sec[i]) {
					return true
				}
			}
		}
	}
	return false
}

// floatDefs collects every register the fragment defines in the float
// domain, so a domain-flip mutation can pick operands guaranteed undefined
// as floats.
func floatDefs(f *kernel.Fragment) map[kernel.Reg]bool {
	defs := map[kernel.Reg]bool{}
	scan := func(body []kernel.Instr) {
		for _, in := range body {
			if r, flt, ok := in.Def(); ok && flt {
				defs[r] = true
			}
		}
	}
	scan(f.Pre)
	for _, l := range f.Loops {
		scan(l.Body)
	}
	scan(f.Post)
	scan(f.PostLoopBody)
	return defs
}

// hasRule reports whether ds flags rule at the level the catalogue gives
// it: every rule is an Error but VP007, which is a warning.
func hasRule(ds []verify.Diagnostic, rule string) bool {
	level := verify.Error
	if rule == verify.RuleUseBeforeProd {
		level = verify.Warn
	}
	for _, d := range ds {
		if d.Rule == rule && d.Level == level {
			return true
		}
	}
	return false
}

// defines counts the instructions of f that define r in the given file.
func defines(f *kernel.Fragment, r kernel.Reg, flt bool) int {
	n := 0
	eachInstr(&kernel.Kernel{Frags: []*kernel.Fragment{f}}, func(_ *kernel.Fragment, in *kernel.Instr) bool {
		if d, df, ok := in.Def(); ok && d == r && df == flt {
			n++
		}
		return false
	})
	return n
}

type mutation struct {
	name string
	rule string
	plan func(t *testing.T) *Plan
	// mutate corrupts exactly one field; it reports false when the plan
	// offers no applicable site (which fails the test — the fixture
	// programs are chosen to exercise every rule).
	mutate func(p *Plan) bool
}

func mutations() []mutation {
	sel := func(t *testing.T) *Plan { return mutSelectPlan(t, Options{}) }
	selPred := func(t *testing.T) *Plan { return mutSelectPlan(t, Options{Predication: true}) }
	return []mutation{
		{"swap-register-undefined", verify.RuleUseBeforeDef, sel,
			func(p *Plan) bool {
				return eachInstr(p.kern, func(f *kernel.Fragment, in *kernel.Instr) bool {
					if in.Op != kernel.IBin {
						return false
					}
					in.A = 200
					return true
				})
			}},
		{"read-before-body-def", verify.RuleUseBeforeDef, sel,
			func(p *Plan) bool {
				// Move a loop body's only definition of a register behind its
				// first reader in the body: that read sees the previous
				// iteration's value, and the first iteration's sees whatever
				// the last work item on the worker left.
				for _, f := range p.kern.Frags {
					for li := range f.Loops {
						body := f.Loops[li].Body
						for q := range body {
							r, flt, ok := body[q].Def()
							if !ok || defines(f, r, flt) != 1 {
								continue
							}
							for at := q + 1; at < len(body); at++ {
								uses, n := body[at].Uses()
								for _, u := range uses[:n] {
									if u.R == r && u.Float == flt {
										def := body[q]
										copy(body[q:at], body[q+1:at+1])
										body[at] = def
										return true
									}
								}
							}
						}
					}
				}
				return false
			}},
		{"load-store-one-buffer", verify.RuleRWOverlap, sel,
			func(p *Plan) bool {
				// Store into a buffer the same fragment loads.
				for _, f := range p.kern.Frags {
					var load, store *kernel.Instr
					eachInstr(&kernel.Kernel{Frags: []*kernel.Fragment{f}}, func(_ *kernel.Fragment, in *kernel.Instr) bool {
						switch {
						case in.Op == kernel.ILoad && load == nil:
							load = in
						case in.Op == kernel.IStore && store == nil:
							store = in
						}
						return false
					})
					if load != nil && store != nil && load.Float == store.Float {
						store.Buf = load.Buf
						return true
					}
				}
				return false
			}},
		{"write-special-register", verify.RuleSpecialWrite, sel,
			func(p *Plan) bool {
				return eachInstr(p.kern, func(f *kernel.Fragment, in *kernel.Instr) bool {
					if in.Op != kernel.IBin || in.Dst < kernel.FirstFree {
						return false
					}
					in.Dst = kernel.RegIdx
					return true
				})
			}},
		{"domain-flip", verify.RuleUseBeforeDef, sel,
			func(p *Plan) bool {
				return eachInstr(p.kern, func(f *kernel.Fragment, in *kernel.Instr) bool {
					if in.Op != kernel.IBin || in.Float {
						return false
					}
					fd := floatDefs(f)
					if fd[in.A] || fd[in.B] || in.A == in.Dst || in.B == in.Dst {
						return false
					}
					in.Float = true
					return true
				})
			}},
		{"buffer-out-of-range", verify.RuleBufRange, sel,
			func(p *Plan) bool {
				return eachInstr(p.kern, func(f *kernel.Fragment, in *kernel.Instr) bool {
					if in.Op != kernel.ILoad && in.Op != kernel.ILoadValid && in.Op != kernel.IStore {
						return false
					}
					in.Buf = 999
					return true
				})
			}},
		{"kind-mismatch", verify.RuleKindMismatch, sel,
			func(p *Plan) bool {
				return eachInstr(p.kern, func(f *kernel.Fragment, in *kernel.Instr) bool {
					if in.Op != kernel.ILoad {
						return false
					}
					in.Float = !in.Float
					return true
				})
			}},
		{"drop-validity-mask", verify.RuleStoreValid, selPred,
			func(p *Plan) bool {
				return eachInstr(p.kern, func(f *kernel.Fragment, in *kernel.Instr) bool {
					if in.Op != kernel.IStore || in.C <= 0 {
						return false
					}
					p.kern.Bufs[in.Buf].Valid = false
					return true
				})
			}},
		{"drop-locals", verify.RuleLocals, mutGroupByPlan,
			func(p *Plan) bool {
				for _, f := range p.kern.Frags {
					if f.Locals > 0 {
						f.Locals = 0
						return true
					}
				}
				return false
			}},
		{"negative-loop-bound", verify.RuleLoopBound, sel,
			func(p *Plan) bool {
				for _, f := range p.kern.Frags {
					if len(f.Loops) > 0 {
						f.Loops[0].Bound = -3
						return true
					}
				}
				return false
			}},
		{"reserved-bound-register", verify.RuleLoopBound, sel,
			func(p *Plan) bool {
				for _, f := range p.kern.Frags {
					if len(f.Loops) > 0 {
						f.Loops[0].BoundReg = kernel.RegIdx
						return true
					}
				}
				return false
			}},
		{"negative-extent", verify.RuleGeometry, sel,
			func(p *Plan) bool {
				for _, f := range p.kern.Frags {
					f.Extent = -5
					return true
				}
				return false
			}},
		{"n-overflows-geometry", verify.RuleGeometry, sel,
			func(p *Plan) bool {
				for _, f := range p.kern.Frags {
					if f.Extent <= 0 || f.Intent <= 0 {
						continue
					}
					ok := true
					for _, l := range f.Loops {
						if l.BoundReg > 0 || l.Bound > f.Intent {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					f.N = f.Extent*f.Intent + 7
					return true
				}
				return false
			}},
		{"seq-on-random-store", verify.RuleSeqClass, mutScatterPlan,
			func(p *Plan) bool {
				return eachInstr(p.kern, func(f *kernel.Fragment, in *kernel.Instr) bool {
					if f.Prov.Kind != "scatter" || in.Op != kernel.IStore || in.Seq {
						return false
					}
					in.Seq = true
					return true
				})
			}},
		{"unknown-opcode", verify.RuleBadInstr, sel,
			func(p *Plan) bool {
				return eachInstr(p.kern, func(f *kernel.Fragment, in *kernel.Instr) bool {
					if in.Op != kernel.IBin {
						return false
					}
					in.Op = 99
					return true
				})
			}},
		{"negative-buffer-size", verify.RuleBufDecl, sel,
			func(p *Plan) bool {
				if len(p.kern.Bufs) == 0 {
					return false
				}
				p.kern.Bufs[0].Size = -1
				return true
			}},
		{"unnamed-buffer", verify.RuleBufDecl, sel,
			func(p *Plan) bool {
				if len(p.kern.Bufs) == 0 {
					return false
				}
				p.kern.Bufs[0].Name = ""
				return true
			}},
		{"drop-binding", verify.RuleInputUnbound, sel,
			func(p *Plan) bool {
				for i, s := range p.steps {
					if _, ok := s.(*bindStep); ok {
						p.steps = append(p.steps[:i:i], p.steps[i+1:]...)
						return true
					}
				}
				return false
			}},
		{"binding-out-of-range", verify.RulePlanBufRange, sel,
			func(p *Plan) bool {
				for _, s := range p.steps {
					if b, ok := s.(*bindStep); ok {
						b.buf = 999
						return true
					}
				}
				return false
			}},
		{"drop-schema-column", verify.RulePlanSchema, mutPartitionPlan,
			func(p *Plan) bool {
				for _, s := range p.steps {
					if b, ok := s.(*bulkStep); ok && len(b.attrs) > 0 {
						b.attrs = b.attrs[:len(b.attrs)-1]
						return true
					}
				}
				return false
			}},
		{"bulk-output-out-of-range", verify.RulePlanBufRange, mutPartitionPlan,
			func(p *Plan) bool {
				for _, s := range p.steps {
					if b, ok := s.(*bulkStep); ok && len(b.outBufs) > 0 {
						b.outBufs[0] = 999
						return true
					}
				}
				return false
			}},
		{"virtual-random-store", verify.RuleVirtualStore, mutGroupByPlan,
			func(p *Plan) bool {
				return eachInstr(p.kern, func(f *kernel.Fragment, in *kernel.Instr) bool {
					if !f.Prov.Virtual || in.Op != kernel.IStore || !in.Seq {
						return false
					}
					in.Seq = false
					return true
				})
			}},
		{"scatter-all-sequential", verify.RuleScatterSeq, mutScatterPlan,
			func(p *Plan) bool {
				applied := false
				for _, f := range p.kern.Frags {
					if f.Prov.Kind != "scatter" {
						continue
					}
					eachInstr(&kernel.Kernel{Frags: []*kernel.Fragment{f}},
						func(_ *kernel.Fragment, in *kernel.Instr) bool {
							if in.Op == kernel.IStore {
								in.Seq = true
								applied = true
							}
							return false
						})
				}
				return applied
			}},
		{"step-before-producer", verify.RuleUseBeforeProd, mutGroupByPlan,
			func(p *Plan) bool {
				for i, s := range p.steps {
					fs, ok := s.(*fragStep)
					if !ok || i == 0 {
						continue
					}
					reads, _ := fragBufAccess(fs.f)
					for _, b := range reads {
						if b >= 0 && b < len(p.kern.Bufs) && !p.kern.Bufs[b].Input {
							rest := append([]step{}, p.steps[:i]...)
							p.steps = append([]step{fs}, append(rest, p.steps[i+1:]...)...)
							return true
						}
					}
				}
				return false
			}},
	}
}

// TestVerifierCatchesMutations corrupts valid plans one field at a time and
// checks each corruption is caught statically with the right rule ID. The
// acceptance gate requires a catch rate of at least 95%.
func TestVerifierCatchesMutations(t *testing.T) {
	muts := mutations()
	total, caught := 0, 0
	for _, m := range muts {
		m := m
		t.Run(m.name, func(t *testing.T) {
			p := m.plan(t)
			for _, d := range p.Verify() {
				if d.Rule != verify.RuleDeadStore { // waste, not a violation
					t.Fatalf("baseline plan does not verify clean: %v", d)
				}
			}
			if !m.mutate(p) {
				t.Fatalf("no applicable mutation site in fixture plan\nkernel:\n%s", p.kern)
			}
			total++
			ds := p.Verify()
			if !hasRule(ds, m.rule) {
				t.Errorf("corruption not flagged with %s; diagnostics: %v\nkernel:\n%s", m.rule, ds, p.kern)
				return
			}
			caught++
			for _, d := range ds {
				if d.Rule == "" {
					t.Errorf("diagnostic missing rule ID: %v", d)
				}
				if d.Msg == "" {
					t.Errorf("diagnostic missing message: %v", d)
				}
			}
		})
	}
	if total == 0 {
		t.Fatal("no mutations ran")
	}
	rate := float64(caught) / float64(total)
	t.Logf("mutation catch rate: %d/%d (%.1f%%)", caught, total, 100*rate)
	if rate < 0.95 {
		t.Fatalf("mutation catch rate %.1f%% below the 95%% acceptance gate", 100*rate)
	}
}
