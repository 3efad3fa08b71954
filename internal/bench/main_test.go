package bench

import (
	"os"
	"testing"

	"voodoo/internal/verify"
)

// TestMain switches static verification on for every test in this
// package: each program and compiled plan the figure harness builds is
// verified before it runs, so a figure workload that lowers to an
// ill-formed plan fails here.
func TestMain(m *testing.M) {
	verify.SetEnabled(true)
	os.Exit(m.Run())
}
