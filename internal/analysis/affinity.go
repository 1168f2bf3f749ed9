package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Affinity encodes the paper's castability contract (Ch. 3, the
// Berkeley bupc_cast extension): a privatized pointer returned by
// Shared.Cast is only valid for threads whose affinity the runtime can
// map — self, and same-node threads under shared memory — and only for
// the duration of the scope that established it. The analyzer flags:
//
//   - Cast results stored in package-level variables, or captured by
//     closures that escape the establishing function (returned, or
//     stored package-level): the privatized pointer would outlive the
//     thread-group scope that made it castable;
//   - Cast results dereferenced without an affinity check — no
//     `!= nil` guard on the result and no preceding Thread.Castable
//     call in the function. Cast returns nil for non-castable owners,
//     so an unguarded index is a latent panic that appears only when
//     the layout crosses a node boundary;
//   - Shared.Partition calls outside internal/upc: Partition bypasses
//     the affinity model entirely (it exists for verification code and
//     delivery-time handlers) and must justify itself with
//     //upcvet:affinity.
var Affinity = &Analyzer{
	Name: "affinity",
	Doc: "flag privatized Cast pointers that escape their scope or are " +
		"dereferenced unchecked, and affinity-bypassing Partition calls",
	Run: runAffinity,
}

func runAffinity(pass *Pass) error {
	inUPC := strings.TrimSuffix(pass.Path, "_test") == "repro/internal/upc"
	for _, fd := range funcBodies(pass.Files) {
		checkAffinityFunc(pass, fd, inUPC)
	}
	return nil
}

func checkAffinityFunc(pass *Pass, fd *ast.FuncDecl, inUPC bool) {
	// Lexical positions of Castable() calls: a Cast dominated by an
	// explicit castability query is considered checked.
	var castableCalls []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Castable" {
				castableCalls = append(castableCalls, call.Pos())
			}
		}
		return true
	})
	checkedBy := func(pos token.Pos) bool {
		for _, p := range castableCalls {
			if p < pos {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Partition":
			if !inUPC && isMethodCall(pass.Info, sel) {
				pass.Reportf(call.Pos(),
					"Partition bypasses the affinity model (valid only for verification and delivery-time handlers); use Local/Cast/transfer APIs or annotate //upcvet:affinity")
			}
		case "Cast":
			if isMethodCall(pass.Info, sel) {
				checkCastUse(pass, fd, call, checkedBy(call.Pos()))
			}
		}
		return true
	})
}

// isMethodCall reports whether the selector is a method (not a package
// function from some imported package named Cast/Partition).
func isMethodCall(info *types.Info, sel *ast.SelectorExpr) bool {
	return info.Selections[sel] != nil
}

// checkCastUse validates one Cast call site against the scope and
// nil-check rules.
func checkCastUse(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, castableChecked bool) {
	parent := enclosingStmtParent(fd.Body, call)

	// Direct dereference: s.Cast(t, o)[i] with no intervening check.
	if idx, ok := parent.(*ast.IndexExpr); ok && ast.Unparen(idx.X) == call {
		if !castableChecked {
			pass.Reportf(call.Pos(),
				"Cast result dereferenced without affinity check: Cast returns nil for non-castable owners; guard with Castable or a nil check")
		}
		return
	}

	as, ok := parent.(*ast.AssignStmt)
	if !ok {
		return
	}
	// Which LHS receives this call? Parallel assignments pair up by
	// index; a single call with multiple LHS cannot be Cast (one result).
	target := -1
	for i, rhs := range as.Rhs {
		if ast.Unparen(rhs) == call && i < len(as.Lhs) {
			target = i
		}
	}
	if target < 0 {
		return
	}
	switch lhs := as.Lhs[target].(type) {
	case *ast.Ident:
		obj := pass.Info.ObjectOf(lhs)
		if obj == nil {
			return
		}
		if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
			pass.Reportf(call.Pos(),
				"Cast result stored in package-level variable %s: privatized pointers are only valid within the scope whose thread group established castability", lhs.Name)
			return
		}
		checkCastVar(pass, fd, call, obj, castableChecked)
	default:
		// Stores into fields/slices of local structures (e.g. a group
		// cast table built and owned by the run) are in-scope by
		// construction; package-level targets would need a package-level
		// base, which Go surfaces as the Ident case above.
	}
}

// checkCastVar tracks a local variable holding a Cast result: flag
// escapes via package-level closures or returned closures, and
// dereferences with no nil guard.
func checkCastVar(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, obj types.Object, castableChecked bool) {
	var nilCheckPos, firstDerefPos token.Pos
	escape := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			// v == nil / v != nil in any condition.
			if isNilComparison(pass.Info, n, obj) && (nilCheckPos == token.NoPos || n.Pos() < nilCheckPos) {
				nilCheckPos = n.Pos()
			}
		case *ast.CallExpr:
			// len(v) used as a guard counts as a check.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "len" && len(n.Args) == 1 {
				if aid, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok && pass.Info.ObjectOf(aid) == obj {
					if nilCheckPos == token.NoPos || n.Pos() < nilCheckPos {
						nilCheckPos = n.Pos()
					}
				}
			}
		case *ast.IndexExpr:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
				if firstDerefPos == token.NoPos || n.Pos() < firstDerefPos {
					firstDerefPos = n.Pos()
				}
			}
		case *ast.FuncLit:
			if usesObject(pass.Info, n, obj) && closureEscapes(pass, fd, n) {
				escape = n.Pos()
			}
		}
		return true
	})
	if escape != token.NoPos {
		pass.Reportf(escape,
			"closure capturing Cast result %s escapes the establishing scope; privatized pointers must not outlive their thread group", obj.Name())
	}
	if firstDerefPos != token.NoPos && !castableChecked &&
		(nilCheckPos == token.NoPos || nilCheckPos > firstDerefPos) {
		pass.Reportf(call.Pos(),
			"Cast result %s dereferenced without affinity check: Cast returns nil for non-castable owners; guard with Castable or a nil check", obj.Name())
	}
}

func isNilComparison(info *types.Info, be *ast.BinaryExpr, obj types.Object) bool {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return false
	}
	matches := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.ObjectOf(id) == obj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (matches(be.X) && isNil(be.Y)) || (matches(be.Y) && isNil(be.X))
}

func usesObject(info *types.Info, node ast.Node, obj types.Object) bool {
	used := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

// closureEscapes reports whether the function literal leaves the
// enclosing function: returned, or assigned to a package-level var.
func closureEscapes(pass *Pass, fd *ast.FuncDecl, fl *ast.FuncLit) bool {
	escapes := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if containsNode(r, fl) {
					escapes = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !containsNode(rhs, fl) || i >= len(n.Lhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if v, ok := pass.Info.ObjectOf(id).(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
						escapes = true
					}
				}
			}
		}
		return !escapes
	})
	return escapes
}

func containsNode(root ast.Expr, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// enclosingStmtParent returns the immediate interesting parent of the
// call: the IndexExpr that dereferences it or the AssignStmt that
// stores it, looking through parentheses.
func enclosingStmtParent(body *ast.BlockStmt, call *ast.CallExpr) ast.Node {
	var parent ast.Node
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if n == call && len(stack) > 0 {
			for i := len(stack) - 1; i >= 0; i-- {
				switch stack[i].(type) {
				case *ast.ParenExpr:
					continue
				default:
					parent = stack[i]
				}
				break
			}
		}
		stack = append(stack, n)
		return true
	})
	return parent
}
