package compile

import (
	"context"
	"math/rand"
	"testing"

	"voodoo/internal/core"
	"voodoo/internal/interp"
	"voodoo/internal/vector"
)

// TestBoundedCuckooTable demonstrates the paper's §6 claim: cuckoo hashing
// "can only be approximated in Voodoo because each cuckoo iteration needs
// to (logically) create a new data structure ... the program grows linearly
// with the number of cuckoo-iterations", which "bounds the number of
// possible iterations to a (reasonably small) constant".
//
// Each round scatters every key at its current hash choice into a brand-new
// table (write-once, no hidden state); keys that lost their slot flip to
// their other hash function for the next round. After a bounded number of
// rounds every key owns its slot — verified by a gather at the assigned
// position. Both backends must agree bit-for-bit.
func TestBoundedCuckooTable(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	n := 64
	m := int64(4 * n) // load factor 1/4: a handful of rounds settles all keys
	seen := map[int64]bool{}
	keys := make([]int64, 0, n)
	for len(keys) < n {
		k := 1 + r.Int63n(100000)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}

	st := interp.MemStorage{"keys": vector.New(n).Set("k", vector.NewInt(keys))}
	b := core.NewBuilder()
	ks := b.Load("keys")
	keyCol := b.Project("k", ks, "k")

	// The two hash choices.
	h1 := b.Modulo(keyCol, b.Constant(m))
	h2 := b.Modulo(b.BitShift(
		b.Multiply(keyCol, b.Constant(2654435761)), b.Constant(-11)),
		b.Constant(m))

	sizeVec := b.RangeN(0, int(m), 1)
	one := b.Constant(1)
	two := b.Constant(2)

	// choice[k] ∈ {0, 1} selects h1 or h2; start with h1 for everyone.
	choice := b.Multiply(keyCol, b.Constant(0))

	const rounds = 8
	var won core.Ref
	for round := 0; round < rounds; round++ {
		// p = h1*(1-choice) + h2*choice — pure arithmetic choice.
		p := b.Add(
			b.Multiply(h1, b.Subtract(one, choice)),
			b.Multiply(h2, choice))
		// A logically new table every round: scatter all keys at their
		// current choice. Conflicting writes: the later key wins.
		src := b.Zip("k", keyCol, "", "p", p, "")
		table := b.Scatter(b.Project("k", src, "k"), sizeVec, "", src, "p")
		// Who owns their slot?
		check := b.Gather(table, src, "p")
		won = b.Arith(core.OpEquals, "w", check, "", keyCol, "")
		if round == rounds-1 {
			break
		}
		// Losers flip to the other hash for the next (re-created) table.
		lost := b.Subtract(one, won)
		choice = b.Modulo(b.Add(choice, lost), two)
	}
	total := b.FoldSum(won, "", "")

	prog := b.Program()

	// The two backends must agree exactly.
	want, err := interp.Run(context.Background(), prog, st, interp.Opts{})
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	plan, err := Compile(prog, st, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	got, err := plan.RunWith(context.Background(), RunOpts{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for ref, gv := range got.Values {
		if !gv.Equal(want.Value(ref)) {
			t.Fatalf("backends disagree on v%d", ref)
		}
	}

	// Nearly every key settles within the bounded rounds. A perfect
	// cuckoo build displaces the incumbent on conflict; the write-once
	// approximation can leave a small residue of keys whose both slots
	// are owned — precisely the limitation the paper describes ("the
	// former can be implemented ... the latter can only be approximated").
	foundCount := want.Value(total).SingleCol()
	if !foundCount.Valid(0) || foundCount.Int(0) < int64(n)-2 {
		t.Fatalf("cuckoo placement settled only %d of %d keys", foundCount.Int(0), n)
	}

	// The claimed growth: statically bounded, linear in the round count.
	if len(prog.Stmts) > 20*rounds {
		t.Errorf("program should stay linear in rounds: %d statements", len(prog.Stmts))
	}
}
