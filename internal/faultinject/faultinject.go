// Package faultinject lets tests inject failures into the execution
// engine without build tags: allocation errors at buffer-allocation time,
// panics or artificial slowness inside fragment loops, and per-fragment
// observation points. Installing hooks does not change which tier runs a
// fragment: the batch tier and the interpreter call them at one shared
// checkpoint, so a failure test exercises the code a query runs.
// Production code always runs with every hook unset; the only cost it pays
// is one atomic load at each instrumentation site, and the hot path in the
// executor amortizes even that behind its cancellation-check counter.
//
// Hooks are process-global (the executor has no per-query hook plumbing),
// so tests that set them must Clear them when done and must not run in
// parallel with other hook-setting tests.
package faultinject

import (
	"sync"
	"sync/atomic"
)

// Hooks is the set of injection points the executor consults.
type Hooks struct {
	// Alloc runs before each query-local buffer allocation is charged.
	// Returning a non-nil error makes the allocation fail with it.
	Alloc func(bytes int64) error
	// FragmentStart runs once per fragment execution, before any worker
	// starts. Panics raised here are recovered into *exec.PanicError.
	FragmentStart func(frag string)
	// Item runs inside fragment loops at the executor's cancellation-check
	// cadence — about once per 1024 lane-steps, not every work item — with
	// the fragment name and a work item id: the one the interpreter is on,
	// or the first of the tile the batch tier is about to run. The first
	// checkpoint of a worker comes before any of its work. Panic to simulate
	// a kernel bug mid-loop; sleep to simulate slowness.
	Item func(frag string, gid int)
	// MorselClaim runs each time a scheduler participant claims a morsel
	// of a parallel fragment, before the morsel's work items execute.
	// Panics raised here are recovered into *exec.PanicError exactly like
	// in-loop panics.
	MorselClaim func(frag string, morsel int)
}

var (
	enabled atomic.Bool
	mu      sync.RWMutex
	hooks   Hooks
)

// Set installs h, replacing any previous hooks.
func Set(h Hooks) {
	mu.Lock()
	hooks = h
	mu.Unlock()
	enabled.Store(h.Alloc != nil || h.FragmentStart != nil || h.Item != nil || h.MorselClaim != nil)
}

// Clear removes all hooks.
func Clear() { Set(Hooks{}) }

// Enabled reports whether any hook is installed. Instrumentation sites on
// hot paths gate on this before taking the read lock.
func Enabled() bool { return enabled.Load() }

// Alloc invokes the allocation hook, if any.
func Alloc(bytes int64) error {
	if !enabled.Load() {
		return nil
	}
	mu.RLock()
	h := hooks.Alloc
	mu.RUnlock()
	if h == nil {
		return nil
	}
	return h(bytes)
}

// FragmentStart invokes the fragment-start hook, if any.
func FragmentStart(frag string) {
	if !enabled.Load() {
		return
	}
	mu.RLock()
	h := hooks.FragmentStart
	mu.RUnlock()
	if h != nil {
		h(frag)
	}
}

// Item invokes the in-loop hook, if any.
func Item(frag string, gid int) {
	if !enabled.Load() {
		return
	}
	mu.RLock()
	h := hooks.Item
	mu.RUnlock()
	if h != nil {
		h(frag, gid)
	}
}

// MorselClaim invokes the morsel-claim hook, if any.
func MorselClaim(frag string, morsel int) {
	if !enabled.Load() {
		return
	}
	mu.RLock()
	h := hooks.MorselClaim
	mu.RUnlock()
	if h != nil {
		h(frag, morsel)
	}
}
