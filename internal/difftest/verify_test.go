package difftest

import (
	"context"
	"testing"

	"voodoo/internal/compile"
	"voodoo/internal/interp"
	"voodoo/internal/verify"
)

// TestVerifierFrontLine makes the static verifier the first line of the
// differential harness:
//
//   - every generated program the interpreter accepts must verify with
//     ZERO diagnostics (warnings included) at the algebra level;
//   - algebra-level Error diagnostics are sound, so a flagged program must
//     be rejected by the interpreter (the enabled-mode cross-check inside
//     interp.Run enforces the same thing from the other side);
//   - every plan that compiles — under all seven option combos — must
//     verify with ZERO diagnostics before execution.
func TestVerifierFrontLine(t *testing.T) {
	n := fullPrograms
	if testing.Short() {
		n = shortPrograms
	}
	ctx := context.Background()
	reported, staticCatches := 0, 0
	for seed := int64(1); seed <= int64(n); seed++ {
		if reported >= maxReported {
			t.Fatalf("stopping after %d verification failures", maxReported)
		}
		p := Generate(seed)
		diags := verify.Program(p.Prog, p.St)
		_, ierr := interp.Run(ctx, p.Prog, p.St, interp.Opts{})
		if ierr == nil {
			if len(diags) != 0 {
				t.Errorf("seed %d: interpreter-clean program has %d diagnostics:\n%v\nprogram:\n%s",
					seed, len(diags), diags, p.Prog)
				reported++
			}
		} else if verify.HasErrors(diags) {
			staticCatches++
		}
		for _, cfg := range configs {
			plan, cerr := compile.Compile(p.Prog, p.St, cfg.opt)
			if cerr != nil {
				// Compile already hard-fails on Error-level plan
				// diagnostics while verification is enabled, so a compile
				// error needs no second look here; the main differential
				// test checks rejection symmetry.
				continue
			}
			if ds := withoutDeadStores(plan.Verify()); len(ds) != 0 {
				t.Errorf("seed %d %s: compiled plan has %d diagnostics:\n%v\nprogram:\n%s",
					seed, cfg.name, len(ds), ds, p.Prog)
				reported++
			}
		}
	}
	t.Logf("verifier statically flagged %d of the interpreter-rejected programs", staticCatches)
}

// withoutDeadStores drops the dead-store warnings (VP008): a materialization
// nothing reads is waste, not a contract violation, and generated programs
// have their share.
func withoutDeadStores(ds []verify.Diagnostic) []verify.Diagnostic {
	var out []verify.Diagnostic
	for _, d := range ds {
		if d.Rule != verify.RuleDeadStore {
			out = append(out, d)
		}
	}
	return out
}
