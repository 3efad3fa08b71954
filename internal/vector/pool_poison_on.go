//go:build voodoo_poison

package vector

import "math"

// Poison makes Arena.Release overwrite every returned slice with
// sentinel garbage before it reaches a free list. Any consumer still
// reading a released buffer then sees values no real query produces —
// the difftest pooled combo and the concurrent isolation test run under
// this tag to turn silent use-after-release into loud divergence. The
// executor poisons its register columns too.
const Poison = true

// PoisonInt is the sentinel released integer slots are filled with
// (0xAAAA... as a signed value; tests assert against it).
const PoisonInt int64 = -0x5555555555555556

func poisonInts(s []int64) {
	for i := range s {
		s[i] = PoisonInt
	}
}

func poisonFloats(s []float64) {
	nan := math.NaN()
	for i := range s {
		s[i] = nan
	}
}

func poisonBools(s []bool) {
	// All-true is the poison for validity masks: a released mask read as
	// "every slot valid" exposes the poisoned values next to it instead
	// of hiding them behind ε.
	for i := range s {
		s[i] = true
	}
}
