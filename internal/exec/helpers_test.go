package exec

import (
	"context"
	"fmt"

	"voodoo/internal/kernel"
)

// newEnv allocates k's non-input buffers on the Go heap, ungoverned. Only
// an alloc hook can make NewEnv fail, and the tests that install one call
// NewEnv themselves.
func newEnv(k *kernel.Kernel) *Env {
	env, err := NewEnv(k, Limits{}, nil)
	if err != nil {
		panic(err)
	}
	return env
}

// bind attaches buf to k's input declaration named name, as a compiled
// plan's bind step does, after checking that the kind and size agree.
func (e *Env) bind(k *kernel.Kernel, name string, buf *Buffer) error {
	for i, d := range k.Bufs {
		if d.Name != name {
			continue
		}
		if buf.Kind != d.Kind || buf.Len() != d.Size {
			return fmt.Errorf("buffer %q is %v[%d], declaration wants %v[%d]", name, buf.Kind, buf.Len(), d.Kind, d.Size)
		}
		e.Bufs[i] = buf
		return nil
	}
	return fmt.Errorf("no buffer declaration %q", name)
}

// runFrags runs k's fragments in order through RunFragment, as a compiled
// plan's fragment steps do, and counts a deadline as the plan runner does.
// A non-nil st makes the run counted, with one record per fragment.
func runFrags(ctx context.Context, k *kernel.Kernel, env *Env, par Par, st *Stats) error {
	for _, f := range k.Frags {
		var fs *FragStats
		if st != nil {
			st.Frags = append(st.Frags, FragStats{})
			fs = &st.Frags[len(st.Frags)-1]
		}
		if err := RunFragment(ctx, f, env, par, fs, fs != nil); err != nil {
			NoteDeadline(err)
			return err
		}
	}
	return nil
}
