package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Spanpair flags unbalanced trace span emissions: a closer returned by
// Proc.TraceSpan / Proc.TraceSpanArg (or a local wrapper named
// traceSpan) that some path through the function never calls. An open
// KSpanBegin with no matching KSpanEnd corrupts every downstream sink —
// the metrics profile's per-proc open stack leaks, the Chrome export
// closes the wrong spans at run end — and, because the closer is
// invisible on the happy path, the bug only shows on the early-return
// path that skipped it. The analysis walks the function's statement paths:
// branches must close or defer the closer before every return and
// before falling off the end; passing the closer to a deferred call or
// returning it hands the obligation to the caller.
var Spanpair = &Analyzer{
	Name: "spanpair",
	Doc: "flag trace span closers (TraceSpan/TraceSpanArg results) not " +
		"called on every path of the acquiring function",
	Run: runSpanpair,
}

// spanOpeners are the callables whose func() result closes a span.
var spanOpeners = map[string]bool{
	"TraceSpan": true, "TraceSpanArg": true, "traceSpan": true,
}

func isSpanOpener(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return spanOpeners[fun.Sel.Name]
	case *ast.Ident:
		return spanOpeners[fun.Name]
	}
	return false
}

func runSpanpair(pass *Pass) error {
	for _, fd := range funcBodies(pass.Files) {
		checkSpanFunc(pass, fd.Body)
		// Function literals own their spans independently: a closer
		// opened inside a literal must close inside it.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				checkSpanFunc(pass, fl.Body)
			}
			return true
		})
	}
	return nil
}

// checkSpanFunc analyzes one function body (literals excluded — they
// are analyzed separately) for discarded and path-unbalanced closers.
func checkSpanFunc(pass *Pass, body *ast.BlockStmt) {
	closers := map[types.Object]token.Pos{} // closer var -> first opening pos
	walkOwnStmts(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && isSpanOpener(call) {
				pass.Reportf(call.Pos(),
					"span closer discarded: the func() returned by TraceSpan must be called to emit the matching KSpanEnd")
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isSpanOpener(call) || i >= len(n.Lhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(),
						"span closer discarded: the func() returned by TraceSpan must be called to emit the matching KSpanEnd")
					continue
				}
				if obj := pass.Info.ObjectOf(id); obj != nil {
					if _, seen := closers[obj]; !seen {
						closers[obj] = call.Pos()
					}
				}
			}
		}
	})
	// Deterministic order: walk closers by opening position.
	ordered := make([]types.Object, 0, len(closers))
	for obj := range closers {
		ordered = append(ordered, obj)
	}
	sort.Slice(ordered, func(i, j int) bool { return closers[ordered[i]] < closers[ordered[j]] })
	for _, obj := range ordered {
		checkCloserPaths(pass, body, obj, closers[obj])
	}
}

// walkOwnStmts visits every node of body that is not inside a nested
// function literal.
func walkOwnStmts(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// spanState is the walker's per-path closer state.
type spanState int

const (
	spanUnopened spanState = iota
	spanOpen
	spanClosed
)

// mergeSpan joins the states of two converging paths; open wins so a
// later return on the merged path is still checked.
func mergeSpan(a, b spanState) spanState {
	if a == spanOpen || b == spanOpen {
		return spanOpen
	}
	if a == b {
		return a
	}
	return spanUnopened
}

type spanWalker struct {
	pass    *Pass
	obj     types.Object
	openPos token.Pos
	escaped bool
}

// checkCloserPaths verifies that every path from the closer's opening
// assignment calls it (or defers it, or returns it) before leaving the
// function.
func checkCloserPaths(pass *Pass, body *ast.BlockStmt, obj types.Object, openPos token.Pos) {
	w := &spanWalker{pass: pass, obj: obj, openPos: openPos}
	// A closer referenced by a non-deferred literal (stored, passed
	// along) leaves lexical reach; trust the programmer there. Deferred
	// literals are still handled precisely by the path walk.
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && usesObject(pass.Info, fl, obj) {
			w.escaped = true
			return false
		}
		return true
	})
	if w.escaped {
		return
	}
	st, terminated := w.stmts(body.List, spanUnopened)
	if !terminated && st == spanOpen {
		pass.Reportf(openPos,
			"span closer %s is not called before the function falls off the end; every KSpanBegin needs its KSpanEnd", obj.Name())
	}
}

func (w *spanWalker) stmts(list []ast.Stmt, st spanState) (spanState, bool) {
	for _, s := range list {
		var terminated bool
		st, terminated = w.stmt(s, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (w *spanWalker) stmt(s ast.Stmt, st spanState) (spanState, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for i, rhs := range s.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isSpanOpener(call) || i >= len(s.Lhs) {
				continue
			}
			if id, ok := s.Lhs[i].(*ast.Ident); ok && w.pass.Info.ObjectOf(id) == w.obj {
				return spanOpen, false
			}
		}
		return st, false
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return st, false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if w.pass.Info.ObjectOf(id) == w.obj {
				return spanClosed, false
			}
			if id.Name == "panic" {
				return st, true
			}
		}
		if isTerminalCall(call) {
			return st, true
		}
		return st, false
	case *ast.DeferStmt:
		if id, ok := ast.Unparen(s.Call.Fun).(*ast.Ident); ok && w.pass.Info.ObjectOf(id) == w.obj {
			return spanClosed, false
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok && usesObject(w.pass.Info, fl, w.obj) {
			return spanClosed, false
		}
		return st, false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if id, ok := ast.Unparen(r).(*ast.Ident); ok && w.pass.Info.ObjectOf(id) == w.obj {
				return spanClosed, true // obligation transferred to caller
			}
		}
		if st == spanOpen {
			w.pass.Reportf(s.Pos(),
				"span closer %s (opened at %s) is not called on this return path",
				w.obj.Name(), w.pass.Fset.Position(w.openPos))
		}
		return st, true
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		thenSt, thenTerm := w.stmts(s.Body.List, st)
		elseSt, elseTerm := st, false
		if s.Else != nil {
			elseSt, elseTerm = w.stmt(s.Else, st)
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return mergeSpan(thenSt, elseSt), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		w.stmts(s.Body.List, st) // report leaks inside; zero iterations possible
		return st, s.Cond == nil && !hasBreak(s.Body)
	case *ast.RangeStmt:
		w.stmts(s.Body.List, st)
		return st, false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.switchStmt(s, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; the loop or
		// label context was walked with the entry state already.
		return st, true
	case *ast.GoStmt:
		return st, false
	default:
		return st, false
	}
}

// switchStmt handles switch/type-switch/select: every case body walks
// from the entry state; the merged state closes only when all
// non-terminating cases close and a default exists.
func (w *spanWalker) switchStmt(s ast.Stmt, st spanState) (spanState, bool) {
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	hasDefault := false
	allClose, anyOpen, allTerm := true, false, true
	for _, clause := range body.List {
		var list []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			list = c.Body
		}
		cs, cterm := w.stmts(list, st)
		if !cterm {
			allTerm = false
			if cs != spanClosed {
				allClose = false
			}
			if cs == spanOpen {
				anyOpen = true
			}
		}
	}
	if allTerm && hasDefault && len(body.List) > 0 {
		return st, true
	}
	switch {
	case anyOpen:
		return spanOpen, false
	case allClose && hasDefault && len(body.List) > 0:
		return spanClosed, false
	default:
		return st, false
	}
}

// isTerminalCall recognizes calls that never return: os.Exit,
// log.Fatal*, testing's t.Fatal*/t.Skip*.
func isTerminalCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Exit", "Fatal", "Fatalf", "FailNow", "Fatalln", "Skip", "Skipf", "SkipNow", "Goexit":
		return true
	}
	return false
}

// hasBreak reports whether the block contains a break that could leave
// the enclosing for statement.
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// break inside these doesn't reach our loop (unlabeled).
			return false
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				found = true
			}
		}
		return !found
	})
	return found
}
