package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maporder flags range statements over maps whose loop body's effects
// depend on iteration order: emitting trace events, printing or writing
// to an io.Writer, issuing simulated operations (network puts, barrier
// arrivals — anything through the sim/upc/fabric layers), appending to
// a slice that is never sorted afterwards, or concatenating onto a
// string. Go randomizes map iteration per run, so each of those turns
// into run-to-run nondeterminism — the exact bug class of the
// ChromeWriter dangling-span export fixed by hand in PR 2, where open
// spans were closed in map order and same-seed trace files differed.
//
// The check is transitive within the package: a loop body that calls a
// same-package function inherits that function's effects (the
// ChromeWriter loop called a local closure that did the writing).
//
// Order-insensitive bodies pass without annotation:
//
//   - the collect-keys-then-sort idiom — appends into a slice that a
//     later sort.X / slices.X call in the same function orders;
//   - commutative accumulation — map inserts, numeric += / |= and
//     friends, pure computation.
//
// Genuinely order-invisible loops that the analyzer cannot prove carry
// //upcvet:maporder with a reason.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map loops whose body order reaches an output: " +
		"trace events, writers, simulated operations, unsorted result slices",
	Run: runMaporder,
}

// emittingMethods are method names whose call order is observable
// output order: trace emission, writer output, and testing logs.
var emittingMethods = map[string]bool{
	"Emit": true, "TraceInstant": true, "TraceCounter": true,
	"TraceSpan": true, "TraceSpanArg": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Error": true, "Errorf": true, "Log": true, "Logf": true,
	"Fatal": true, "Fatalf": true, "Skip": true, "Skipf": true,
	"Print": true, "Printf": true, "Println": true,
}

// emittingFmtFuncs are the fmt package's printing functions.
var emittingFmtFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// simOpPackages are the layers whose calls advance the simulation:
// calling into them in map order reorders the engine's event stream.
var simOpPackages = map[string]bool{
	"repro/internal/sim":       true,
	"repro/internal/upc":       true,
	"repro/internal/fabric":    true,
	"repro/internal/mpi":       true,
	"repro/internal/subthread": true,
	"repro/internal/group":     true,
	"repro/internal/trace":     true,
}

func runMaporder(pass *Pass) error {
	m := &maporderPass{
		pass:     pass,
		decls:    map[types.Object]*ast.FuncDecl{},
		closures: map[types.Object]*ast.FuncLit{},
	}
	for _, fd := range funcBodies(pass.Files) {
		if obj := pass.Info.Defs[fd.Name]; obj != nil {
			m.decls[obj] = fd
		}
		// Index `name := func(...) {...}` so calls through closure
		// variables (the ChromeWriter/RA pattern) resolve to a body.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(as.Rhs) {
					continue
				}
				if fl, ok := as.Rhs[i].(*ast.FuncLit); ok {
					if obj := pass.Info.ObjectOf(id); obj != nil {
						m.closures[obj] = fl
					}
				}
			}
			return true
		})
	}
	for _, fd := range funcBodies(pass.Files) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := pass.Info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
				return true
			}
			if reason, pos := m.orderedEffect(rs, fd.Body); reason != "" {
				pass.Reportf(rs.Pos(),
					"map iteration order reaches an ordered output (%s at %s); iterate sorted keys or annotate //upcvet:maporder",
					reason, pass.Fset.Position(pos))
			}
			return true
		})
	}
	return nil
}

type maporderPass struct {
	pass     *Pass
	decls    map[types.Object]*ast.FuncDecl
	closures map[types.Object]*ast.FuncLit
}

// orderedEffect reports the first order-sensitive effect in the range
// body (empty reason if none). enclosing is the body of the innermost
// function containing the loop, searched for the sorted-later idiom.
func (m *maporderPass) orderedEffect(rs *ast.RangeStmt, enclosing *ast.BlockStmt) (string, token.Pos) {
	if fl := innermostFuncLit(enclosing, rs); fl != nil {
		enclosing = fl.Body
	}
	var reason string
	var pos token.Pos
	found := func(r string, p token.Pos) {
		if reason == "" {
			reason, pos = r, p
		}
	}
	seen := map[types.Object]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if r := m.callEffect(n, seen); r != "" {
				found(r, n.Pos())
			}
		case *ast.SendStmt:
			found("channel send", n.Pos())
		case *ast.AssignStmt:
			if r, p := m.assignEffect(n, rs, enclosing); r != "" {
				found(r, p)
			}
		}
		return true
	})
	return reason, pos
}

// innermostFuncLit returns the innermost function literal in body that
// contains the node, or nil if none does.
func innermostFuncLit(body *ast.BlockStmt, node ast.Node) *ast.FuncLit {
	var inner *ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok &&
			fl.Pos() <= node.Pos() && node.End() <= fl.End() {
			inner = fl
		}
		return true
	})
	return inner
}

// callEffect classifies one call: does executing it in map order reach
// an ordered output, directly or through a same-package callee?
func (m *maporderPass) callEffect(call *ast.CallExpr, seen map[types.Object]bool) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "print" || fun.Name == "println" {
			if _, isBuiltin := m.pass.Info.Uses[fun].(*types.Builtin); isBuiltin {
				return "builtin " + fun.Name
			}
		}
		if obj := m.pass.Info.ObjectOf(fun); obj != nil && !seen[obj] {
			if fl := m.closures[obj]; fl != nil {
				seen[obj] = true
				if m.bodyEmits(fl.Body, seen) {
					return "transitive emission via closure " + fun.Name
				}
			}
		}
	case *ast.SelectorExpr:
		if pkg := pkgNameOf(m.pass.Info, fun.X); pkg != "" {
			if pkg == "fmt" && emittingFmtFuncs[fun.Sel.Name] {
				return "fmt." + fun.Sel.Name
			}
		} else if emittingMethods[fun.Sel.Name] {
			return "call to ." + fun.Sel.Name
		}
	}
	fn := calleeFunc(m.pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if simOpPackages[fn.Pkg().Path()] && fn.Pkg() != m.pass.Pkg {
		return "simulated operation " + fn.Pkg().Name() + "." + fn.Name()
	}
	if fn.Pkg() == m.pass.Pkg && !seen[fn] {
		seen[fn] = true
		if fd := m.decls[fn]; fd != nil && m.bodyEmits(fd.Body, seen) {
			return "transitive emission via " + fn.Name()
		}
	}
	return ""
}

// bodyEmits reports whether a same-package callee's body emits ordered
// output (emission and simulated-operation checks only; its local
// appends stay local).
func (m *maporderPass) bodyEmits(body *ast.BlockStmt, seen map[types.Object]bool) bool {
	emits := false
	ast.Inspect(body, func(n ast.Node) bool {
		if emits {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if m.callEffect(call, seen) != "" {
				emits = true
			}
		}
		return true
	})
	return emits
}

// assignEffect classifies one assignment in the loop body: appends to
// loop-external slices are ordered unless sorted later in the enclosing
// function; string concatenation onto a loop-external variable is
// ordered; everything else (map inserts, numeric accumulation, local
// state) is commutative or invisible.
func (m *maporderPass) assignEffect(as *ast.AssignStmt, rs *ast.RangeStmt, enclosing *ast.BlockStmt) (string, token.Pos) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 {
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := m.pass.Info.ObjectOf(id); obj != nil && declaredOutside(obj, rs) {
				if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					return "string concatenation onto " + id.Name, as.Pos()
				}
			}
		}
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || i >= len(as.Rhs) {
			continue
		}
		call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
		if !ok {
			continue
		}
		if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fid.Name != "append" {
			continue
		} else if _, isBuiltin := m.pass.Info.Uses[fid].(*types.Builtin); !isBuiltin {
			continue
		}
		obj := m.pass.Info.ObjectOf(id)
		if obj == nil || !declaredOutside(obj, rs) {
			continue
		}
		if !m.sortedAfter(obj, rs, enclosing) {
			return "append to " + id.Name + " (never sorted)", as.Pos()
		}
	}
	return "", token.NoPos
}

// declaredOutside reports whether obj's declaration is outside the
// range statement (a package or function variable the loop writes to).
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// sortedAfter reports whether the slice object is passed to a sort. or
// slices. call after the loop in the enclosing function body — the
// collect-keys-then-sort idiom.
func (m *maporderPass) sortedAfter(obj types.Object, rs *ast.RangeStmt, enclosing *ast.BlockStmt) bool {
	sorted := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch pkgNameOf(m.pass.Info, sel.X) {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && m.pass.Info.ObjectOf(id) == obj {
				sorted = true
			}
		}
		return true
	})
	return sorted
}
