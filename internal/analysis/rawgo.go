package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

// Rawgo flags raw Go concurrency outside the two packages allowed to
// own OS-level parallelism: internal/sim (the engine's coroutine
// handoff) and internal/sweep (the experiment worker pool). A bare `go`
// statement silently escapes the virtual clock — the goroutine runs in
// host time, invisible to the engine, and its interleaving breaks the
// determinism guarantee; bare sync primitives and channels block OS
// threads instead of simulated processes. Model code must spawn through
// sim.Engine.Go / sim.Proc and synchronize with sim.WaitQueue,
// sim.Event and friends; host-side fan-out goes through sweep.Run.
// The rare legitimate use (a host-side memo cache shared across sweep
// workers) carries //upcvet:rawgo with a reason.
var Rawgo = &Analyzer{
	Name: "rawgo",
	Doc: "flag go statements, sync imports and channel operations outside " +
		"internal/sim and internal/sweep; concurrency goes through sim.Proc or sweep.Run",
	Run: runRawgo,
}

// rawgoExempt are the packages that implement the sanctioned
// concurrency; prefixes so their test units match too. Everything
// else stays on simulated processes, so the analyzer applies there in
// full.
var rawgoExempt = []string{
	"repro/internal/sim",
	"repro/internal/sweep",
}

func rawgoExempted(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, p := range rawgoExempt {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func runRawgo(pass *Pass) error {
	if rawgoExempted(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "sync" || path == "sync/atomic" {
				pass.Reportf(imp.Pos(),
					"import of %q outside internal/sim and internal/sweep: simulated code synchronizes through sim.WaitQueue/sim.Event, host fan-out through sweep.Run", path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"raw go statement escapes the virtual clock; spawn simulated processes with sim.Engine.Go, host workers with sweep.Run")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(),
					"channel send blocks the OS thread, not the simulated process; use sim synchronization")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select blocks the OS thread, not the simulated process; use sim synchronization")
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					pass.Reportf(n.Pos(),
						"channel receive blocks the OS thread, not the simulated process; use sim synchronization")
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
					if _, isChan := n.Args[0].(*ast.ChanType); isChan {
						pass.Reportf(n.Pos(),
							"channel construction outside internal/sim and internal/sweep; use sim synchronization")
					}
				}
			}
			return true
		})
	}
	return nil
}
