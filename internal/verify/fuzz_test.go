package verify_test

import (
	"context"
	"errors"
	"testing"

	"voodoo/internal/core"
	"voodoo/internal/exec"
	"voodoo/internal/interp"
	"voodoo/internal/vector"
	"voodoo/internal/verify"
)

// FuzzVerifyThenRun fuzzes the verifier ↔ interpreter contract with
// byte-decoded programs:
//
//   - a program the verifier passes must never panic the interpreter
//     (data-dependent rejections are fine; a recovered *exec.PanicError is
//     a guaranteed crash the verifier should have predicted);
//   - a program the verifier rejects must be rejected by the interpreter
//     too (algebra-level Error diagnostics are sound);
//   - every diagnostic carries a rule ID, a message, and a statement
//     position inside the program.
//
// The decoder deliberately produces ill-formed programs — wrong arity,
// dangling refs, bogus keypaths, missing vectors — so both the accept and
// reject paths stay exercised.

type byteReader struct {
	data []byte
	i    int
}

func (r *byteReader) next() byte {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return b
}

var fuzzOps = []core.Op{
	core.OpLoad, core.OpPersist, core.OpConstant, core.OpRange, core.OpCross,
	core.OpAdd, core.OpSubtract, core.OpMultiply, core.OpDivide, core.OpModulo,
	core.OpBitShift, core.OpLogicalAnd, core.OpLogicalOr, core.OpGreater, core.OpEquals,
	core.OpZip, core.OpProject, core.OpUpsert, core.OpGather, core.OpScatter,
	core.OpMaterialize, core.OpBreak, core.OpPartition,
	core.OpFoldSelect, core.OpFoldSum, core.OpFoldMin, core.OpFoldMax, core.OpFoldScan,
}

var fuzzKps = []string{"", "v", "x", "pos", "g"}
var fuzzNames = []string{"t", "u", "nope"}

// decodeProgram maps an arbitrary byte string onto a bounded core program.
// Sizes are kept small (≤ 13 statements, Range ≤ 7, ≤ 2 Cross products) so
// every decoded program interprets in microseconds.
func decodeProgram(data []byte) *core.Program {
	r := &byteReader{data: data}
	n := 1 + int(r.next())%13
	p := &core.Program{}
	crosses := 0
	for i := 0; i < n; i++ {
		op := fuzzOps[int(r.next())%len(fuzzOps)]
		if op == core.OpCross {
			crosses++
			if crosses > 2 {
				op = core.OpAdd
			}
		}
		s := core.Stmt{ID: core.Ref(i), Op: op}
		nargs, ok := core.Arity(op)
		if !ok || nargs < 0 {
			nargs = int(r.next()) % 3
		}
		if r.next()%16 == 0 {
			// Occasionally corrupt the arity so VA002 stays exercised.
			nargs = int(r.next()) % 4
		}
		for a := 0; a < nargs; a++ {
			// -1 and i are both invalid refs; 0..i-1 are valid.
			s.Args = append(s.Args, core.Ref(int(r.next())%(i+2)-1))
		}
		for range s.Args {
			s.Kp = append(s.Kp, fuzzKps[int(r.next())%len(fuzzKps)])
		}
		if op.IsFold() {
			s.FoldVal = fuzzKps[int(r.next())%len(fuzzKps)]
		}
		switch op {
		case core.OpLoad, core.OpPersist:
			s.Name = fuzzNames[int(r.next())%len(fuzzNames)]
		case core.OpConstant:
			s.IntVal = int64(int8(r.next()))
			if r.next()%2 == 0 {
				s.IsFloat = true
				s.FloatVal = float64(int8(r.next())) / 2
			}
		case core.OpRange:
			s.Size = int(r.next())%9 - 1 // -1..7: non-positive sizes hit VA004
			s.Step = int64(r.next())%3 - 1
			s.IntVal = int64(int8(r.next()))
		}
		nout := 1
		if op == core.OpZip || op == core.OpCross || r.next()%16 == 0 {
			nout = int(r.next()) % 3
		}
		for o := 0; o < nout; o++ {
			s.Out = append(s.Out, fuzzKps[int(r.next())%len(fuzzKps)])
		}
		p.Stmts = append(p.Stmts, s)
	}
	return p
}

// fuzzStorage is rebuilt per iteration: Persist mutates it.
func fuzzStorage() interp.MemStorage {
	return interp.MemStorage{
		"t": vector.New(6).Set("v", vector.NewInt([]int64{3, 1, 4, 1, 5, 9})),
		"u": vector.New(4).Set("x", vector.NewFloat([]float64{0.5, -1, 2, 7})),
	}
}

func FuzzVerifyThenRun(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 0, 1, 5, 1, 0, 0, 2})
	f.Add([]byte("voodoo vector algebra"))
	f.Add([]byte{7, 23, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{13, 255, 254, 253, 3, 3, 3, 19, 19, 19, 27, 27, 27, 0, 0, 0, 128, 64, 32, 16})
	for seed := byte(0); seed < 32; seed++ {
		f.Add([]byte{seed, byte(seed * 7), byte(seed * 13), byte(seed * 29), byte(seed * 31),
			byte(seed * 37), byte(seed * 41), byte(seed * 43), byte(seed * 47), byte(seed * 53)})
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProgram(data)
		st := fuzzStorage()
		diags := verify.Program(p, st)
		for _, d := range diags {
			if d.Rule == "" {
				t.Fatalf("diagnostic without rule ID: %v\nprogram:\n%s", d, p)
			}
			if d.Msg == "" {
				t.Fatalf("diagnostic without message: %v\nprogram:\n%s", d, p)
			}
			if d.Pos.Stmt < 0 || d.Pos.Stmt >= len(p.Stmts) {
				t.Fatalf("diagnostic position %v outside program of %d statements: %v", d.Pos, len(p.Stmts), d)
			}
		}
		_, err := interp.Run(ctx, p, st, interp.Opts{})
		if verify.HasErrors(diags) && err == nil {
			t.Fatalf("program executes cleanly despite verifier errors\ndiagnostics: %v\nprogram:\n%s", diags, p)
		}
		if len(diags) == 0 && err != nil {
			var pe *exec.PanicError
			if errors.As(err, &pe) {
				t.Fatalf("verified program panicked the interpreter: %v\nprogram:\n%s", err, p)
			}
		}
	})
}
