package lint

import (
	"go/ast"
	"go/types"
)

// ArenaRelease checks the pooled-memory ownership contract: a value
// acquired from NewArena, or from an interp.Run whose Opts set a Pool, owns
// pool memory and must be released in the function that acquired it — via
// a (possibly deferred) Release call — unless ownership visibly escapes
// (the value is returned, stored, or passed along). Leaked arenas are only
// caught dynamically today, by the pool's live-arena accounting.
var ArenaRelease = &Analyzer{
	Name: "arenarelease",
	Doc:  "pooled arenas/results must be Released or escape the acquiring function",
	Run:  runArenaRelease,
}

// arenaAcquirers maps callee names to the index of the returned value that
// owns pool memory. A package-level function is keyed by its package
// selector ("interp.Run" — a bare Run never matches); a method
// by its bare name. TestArenaAcquirersExist keeps the table from going
// stale when an entry point is renamed.
var arenaAcquirers = map[string]int{
	"NewArena":   0,
	"interp.Run": 0,
}

func runArenaRelease(p *Pass) error {
	for _, f := range p.Files {
		if p.isTestFile(f) {
			continue
		}
		parents := parentMap(f)
		ast.Inspect(f, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Rhs) != 1 {
				return true
			}
			call, ok := assign.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			name := qualifiedCallee(p, call)
			idx, tracked := arenaAcquirers[name]
			if !tracked || idx >= len(assign.Lhs) || unpooled(call) {
				return true
			}
			owner, ok := assign.Lhs[idx].(*ast.Ident)
			if !ok || owner.Name == "_" {
				return true
			}
			body := enclosingFunc(parents, assign)
			if body == nil {
				return true
			}
			if !releasedOrEscapes(p, parents, body, owner) {
				p.Reportf(owner.Pos(), "%s from %s is never Released and does not escape this function", owner.Name, name)
			}
			return true
		})
	}
	return nil
}

func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// qualifiedCallee is calleeName prefixed with the package's own name (not
// a local alias) when the callee is selected from an imported package.
func qualifiedCallee(p *Pass, call *ast.CallExpr) string {
	name := calleeName(call)
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if x, ok := sel.X.(*ast.Ident); ok {
			if pkg, ok := p.Info.Uses[x].(*types.PkgName); ok {
				return pkg.Imported().Name() + "." + name
			}
		}
	}
	return name
}

// unpooled reports whether call's last argument is an options literal that
// sets no Pool: such a run draws from the heap, and its result owns
// nothing.
func unpooled(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	lit, ok := call.Args[len(call.Args)-1].(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Pool" {
				return false
			}
		}
	}
	return true
}

// enclosingFunc walks up the parent chain to the body of the innermost
// function declaration or literal containing n.
func enclosingFunc(parents map[ast.Node]ast.Node, n ast.Node) *ast.BlockStmt {
	for cur := n; cur != nil; cur = parents[cur] {
		switch fn := cur.(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// releasedOrEscapes scans the function body for uses of the owner object.
// Selecting its Release method — called, deferred, or taken as a method
// value to be called later — discharges the obligation; a use as a plain
// value (returned, assigned on, passed as an argument, compared) transfers
// ownership out of sight and is accepted conservatively. Any other field
// or method access does neither.
func releasedOrEscapes(p *Pass, parents map[ast.Node]ast.Node, body *ast.BlockStmt, owner *ast.Ident) bool {
	obj := p.Info.Defs[owner]
	if obj == nil {
		obj = p.Info.Uses[owner]
	}
	if obj == nil {
		return true // unresolvable: stay silent
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id == owner || p.Info.Uses[id] != obj {
			return true
		}
		sel, isSel := parents[id].(*ast.SelectorExpr)
		if !isSel {
			// A bare use: return, argument, assignment, comparison —
			// ownership escapes.
			found = true
			return false
		}
		if sel.Sel.Name == "Release" {
			found = true
			return false
		}
		return true
	})
	return found
}
