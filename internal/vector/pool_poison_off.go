//go:build !voodoo_poison

package vector

// Poison is off in normal builds: release leaves buffer contents in
// place (they are zeroed on the next Get anyway). Build with
// -tags voodoo_poison to overwrite released buffers with sentinels and
// surface use-after-release as divergence.
const Poison = false

// PoisonInt matches the voodoo_poison build's sentinel so tests can
// reference it under either tag.
const PoisonInt int64 = -0x5555555555555556

func poisonInts([]int64)     {}
func poisonFloats([]float64) {}
func poisonBools([]bool)     {}
