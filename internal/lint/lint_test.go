package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// analyze type-checks one synthetic file as package pkgpath and runs the
// given analyzers over it.
func analyze(t *testing.T, pkgpath, src string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(pkgpath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	diags, err := Run(fset, []*ast.File{f}, pkg, info, analyzers)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return diags
}

func wantFindings(t *testing.T, diags []Diagnostic, want ...string) {
	t.Helper()
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(diags), len(want), diags)
	}
	for i, frag := range want {
		if !strings.Contains(diags[i].Msg, frag) {
			t.Errorf("finding %d = %q, want it to mention %q", i, diags[i].Msg, frag)
		}
	}
}

func TestNoPrintln(t *testing.T) {
	src := `package fake

import (
	"fmt"
	flog "log"
)

func output() {
	fmt.Println("boom")
	flog.Printf("renamed import %d", 1)
	_ = fmt.Sprintf("formatting is fine")
	//lint:ignore noprintln the one sanctioned print
	fmt.Print("suppressed")
}
`
	diags := analyze(t, "voodoo/internal/fake", src, []*Analyzer{NoPrintln})
	wantFindings(t, diags, "fmt.Println", "log.Printf")
}

func TestNoPrintlnOutsideInternal(t *testing.T) {
	src := `package main

import "fmt"

func main() { fmt.Println("CLIs may print") }
`
	diags := analyze(t, "voodoo/cmd/fake", src, []*Analyzer{NoPrintln})
	wantFindings(t, diags)
}

const arenaDecls = `
type Arena struct{}

func (a *Arena) Release()        {}
func (a *Arena) Ints(n int) []int64 { return nil }

type Pool struct{}

func (p *Pool) NewArena() *Arena { return &Arena{} }
`

func TestArenaReleaseLeak(t *testing.T) {
	src := `package fake
` + arenaDecls + `
func leak(p *Pool) []int64 {
	a := p.NewArena()
	return a.Ints(4)
}
`
	diags := analyze(t, "voodoo/internal/fake", src, []*Analyzer{ArenaRelease})
	wantFindings(t, diags, "never Released")
}

func TestArenaReleaseClean(t *testing.T) {
	src := `package fake
` + arenaDecls + `
func deferred(p *Pool) []int64 {
	a := p.NewArena()
	defer a.Release()
	return a.Ints(4)
}

func escapes(p *Pool) *Arena {
	a := p.NewArena()
	return a
}

func direct(p *Pool) {
	a := p.NewArena()
	a.Release()
}
`
	diags := analyze(t, "voodoo/internal/fake", src, []*Analyzer{ArenaRelease})
	wantFindings(t, diags)
}

// TestArenaReleaseQualified: the interpreter's one entry point is tracked
// by its package selector, so exec.Run (whose first result owns nothing)
// never matches, and only a run whose Opts set a Pool acquires anything.
func TestArenaReleaseQualified(t *testing.T) {
	src := `package fake

import (
	"context"

	"voodoo/internal/core"
	"voodoo/internal/exec"
	"voodoo/internal/interp"
	"voodoo/internal/kernel"
	"voodoo/internal/vector"
)

func leak(ctx context.Context, p *core.Program, st interp.Storage, pool *vector.Pool) int {
	res, _ := interp.Run(ctx, p, st, interp.Opts{Pool: pool, Trace: true})
	return len(res.Values)
}

func released(ctx context.Context, p *core.Program, st interp.Storage, pool *vector.Pool) int {
	res, _ := interp.Run(ctx, p, st, interp.Opts{Pool: pool})
	defer res.Release()
	return len(res.Values)
}

func handedOn(ctx context.Context, p *core.Program, st interp.Storage, pool *vector.Pool) func() {
	res, _ := interp.Run(ctx, p, st, interp.Opts{Pool: pool})
	release := res.Release
	return release
}

func unpooled(ctx context.Context, p *core.Program, st interp.Storage) int {
	res, _ := interp.Run(ctx, p, st, interp.Opts{Trace: true})
	heap, _ := interp.Run(ctx, p, st, interp.Opts{})
	return len(res.Values) + len(heap.Values)
}

func otherRun(ctx context.Context, k *kernel.Kernel, env *exec.Env) string {
	err := exec.Run(ctx, k, env, exec.Par{}, nil)
	return err.Error()
}
`
	diags := analyze(t, "voodoo/internal/fake", src, []*Analyzer{ArenaRelease})
	wantFindings(t, diags, "res from interp.Run is never Released")
}

// TestArenaAcquirersExist keeps the acquirer table honest: every entry
// must name a function or method that still exists in the tree, so a
// renamed entry point fails here instead of silently going unchecked.
func TestArenaAcquirersExist(t *testing.T) {
	for name := range arenaAcquirers {
		pkg, fn, qualified := strings.Cut(name, ".")
		pattern := "../*/*.go"
		if qualified {
			pattern = "../" + pkg + "/*.go"
		} else {
			fn = pkg
		}
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				// A qualified name is a package-level function of that
				// package; a bare one is a method (or function) anywhere.
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn && (!qualified || fd.Recv == nil) {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("arenaAcquirers tracks %q, which no longer exists under internal/", name)
		}
	}
}

func TestCheckpointLoop(t *testing.T) {
	src := `package exec

type worker struct{}

func (w *worker) run(lo, hi int) error { return nil }
func (w *worker) tick(gid int) error   { return nil }

func unchecked(w *worker, n int) error {
	for i := 0; i < n; i++ {
		if err := w.run(i, i+1); err != nil {
			return err
		}
	}
	return nil
}

func checked(w *worker, n int) error {
	for i := 0; i < n; i++ {
		if err := w.tick(i); err != nil {
			return err
		}
		if err := w.run(i, i+1); err != nil {
			return err
		}
	}
	return nil
}
`
	diags := analyze(t, "voodoo/internal/exec", src, []*Analyzer{CheckpointLoop})
	wantFindings(t, diags, "no cancellation checkpoint")
}

func TestCheckpointLoopOutOfScope(t *testing.T) {
	src := `package fake

type worker struct{}

func (w *worker) run(lo, hi int) error { return nil }

func unchecked(w *worker, n int) {
	for i := 0; i < n; i++ {
		_ = w.run(i, i+1)
	}
}
`
	diags := analyze(t, "voodoo/internal/fake", src, []*Analyzer{CheckpointLoop})
	wantFindings(t, diags)
}

func TestAtomicPtr(t *testing.T) {
	src := `package fake

import "sync/atomic"

type frag struct {
	spec atomic.Value
	flag atomic.Bool
}

func misuse(f *frag, g *frag) {
	_ = f.spec          // copy: non-atomic read
	f.spec = g.spec     // reassign (and a copy on the right)
}

func fine(f *frag) {
	f.spec.Store(1)
	_ = f.flag.Load()
	p := &f.spec
	_ = p
	//lint:ignore atomicptr single-threaded setup
	_ = f.spec
}
`
	diags := analyze(t, "voodoo/internal/fake", src, []*Analyzer{AtomicPtr})
	wantFindings(t, diags, "copying atomic field", "reassigning atomic field", "copying atomic field")
}
