package lint

import (
	"go/ast"
	"strings"
)

// CheckpointLoop enforces the cancellation discipline of the execution
// engine: a loop that drives work — morsel claim loops, the statement
// evaluator — must contain a checkpoint call so a canceled context or a
// sibling worker's failure can stop it. The contract is scoped to internal/exec and internal/interp,
// where every such loop already follows the tick/claim idiom.
var CheckpointLoop = &Analyzer{
	Name: "checkpointloop",
	Doc:  "work loops in exec/interp must contain a cancellation checkpoint (tick/claim/ctx.Err)",
	Run:  runCheckpointLoop,
}

// workCalls name the methods that execute fragment or statement work.
var workCalls = map[string]bool{
	"run": true, "runMorsels": true, "eval": true,
}

// checkpointCalls name the accepted cancellation checkpoints. claim checks
// the job's abort flag before handing out a ticket; tick polls the
// context and the shared stop flag; Err is the direct ctx.Err() poll; Load
// covers hand-rolled atomic stop-flag checks.
var checkpointCalls = map[string]bool{
	"tick": true, "claim": true, "Err": true, "Load": true,
}

func runCheckpointLoop(p *Pass) error {
	path := p.Pkg.Path()
	if !strings.HasSuffix(path, "internal/exec") && !strings.HasSuffix(path, "internal/interp") {
		return nil
	}
	for _, f := range p.Files {
		if p.isTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			if !containsCall(body, workCalls) {
				return true
			}
			if !containsCall(body, checkpointCalls) {
				p.Reportf(n.Pos(), "work loop has no cancellation checkpoint (tick/claim/ctx.Err)")
			}
			return true
		})
	}
	return nil
}

func containsCall(body *ast.BlockStmt, names map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if names[calleeName(call)] {
			found = true
			return false
		}
		return true
	})
	return found
}
