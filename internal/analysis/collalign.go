// The collalign analyzer: textual barrier alignment, interprocedurally.
//
// UPC's collectives are anonymous rendezvous points — every thread must
// execute the same sequence of Barrier/AllReduce/... calls, or the
// program deadlocks with some threads parked in a barrier the others
// never reach. The classic bug is a collective guarded by
// thread-identity data:
//
//	if t.ID == 0 { t.Barrier() }          // thread 0 waits forever
//	for i := t.ID; i < n; i += t.N {      // trip count differs per thread
//	        t.Barrier()
//	}
//
// collalign walks every function body computing the sequence of
// collective operations along each control-flow path and flags the
// points where the sequence forks on thread-dependent data: branches
// whose arms disagree about which collectives run, loops enclosing
// collectives whose trip count is thread-dependent, and thread-guarded
// early returns that skip collectives executed by the other threads.
// Calls resolve through the program call graph (callgraph.go), so a
// helper that barriers two packages away still counts; results of
// collective calls are uniform across threads and cleanse the taint
// (n := AllReduceSum(...) is a legal loop bound around a barrier).
//
// Approximations, chosen to match the house idioms: function literals
// contribute their sequence at the point they are written (right for
// the dominant immediate-argument style, w.timed("x", func(){ ... })),
// and calls through stored function values are assumed non-collective.
package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Collalign flags collective sequences that depend on thread identity.
var Collalign = &Analyzer{
	Name: "collalign",
	Doc: "collectives must be textually aligned: every thread executes the same Barrier/AllReduce/... sequence.\n" +
		"           Flags thread-conditional branches, loops and early returns whose paths disagree about\n" +
		"           which collectives run (interprocedural, via the module call graph).",
	Run: runCollalign,
}

func runCollalign(pass *Pass) error {
	for _, decl := range funcBodies(pass.Files) {
		w := &collWalker{pass: pass, taint: threadTaint(pass.Info, decl)}
		w.seqStmts(decl.Body.List, cseq{})
	}
	return nil
}

// A cseq summarizes the collectives along the remainder of a path:
// a space-separated token string, plus whether the path terminates
// (return / break / continue) before falling off the end.
type cseq struct {
	seq  string
	term bool
}

func (c cseq) then(tail cseq) cseq {
	if c.term {
		return c
	}
	return cseq{seq: c.seq + tail.seq, term: tail.term}
}

func hasColl(seq string) bool { return strings.Contains(seq, "§") }

// renderSeq turns a path summary into the diagnostic spelling.
func renderSeq(c cseq) string {
	s := strings.TrimSpace(strings.ReplaceAll(c.seq, "§", ""))
	s = strings.ReplaceAll(s, "repro/internal/", "")
	s = strings.ReplaceAll(s, "repro/", "")
	if s == "" {
		if c.term {
			return "{return, no collectives}"
		}
		return "{no collectives}"
	}
	return "{" + s + "}"
}

type collWalker struct {
	pass  *Pass
	taint map[types.Object]bool
}

func (w *collWalker) tainted(e ast.Expr) bool {
	return threadDepExpr(w.pass.Info, e, w.taint)
}

// seqStmts folds a statement list right-to-left so each statement sees
// the sequence of everything after it — which is what a thread-guarded
// early return needs to know to tell "harmless" from "skips a barrier".
func (w *collWalker) seqStmts(list []ast.Stmt, tail cseq) cseq {
	for i := len(list) - 1; i >= 0; i-- {
		tail = w.seqStmt(list[i], tail)
	}
	return tail
}

func (w *collWalker) seqStmt(s ast.Stmt, tail cseq) cseq {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.seqStmts(s.List, tail)
	case *ast.LabeledStmt:
		return w.seqStmt(s.Stmt, tail)
	case *ast.ReturnStmt:
		c := cseq{term: true}
		for _, r := range s.Results {
			c.seq += w.exprSeq(r)
		}
		return cseq{seq: c.seq, term: true}
	case *ast.BranchStmt:
		// break/continue/goto leave the straight-line path.
		return cseq{term: true}
	case *ast.IfStmt:
		return w.seqIf(s, tail)
	case *ast.SwitchStmt:
		return w.seqSwitch(s.Init, s.Tag, s.Body, s, tail)
	case *ast.TypeSwitchStmt:
		return w.seqSwitch(s.Init, nil, s.Body, s, tail)
	case *ast.SelectStmt:
		var arms []cseq
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				arms = append(arms, w.seqStmts(cc.Body, tail))
			}
		}
		return mergeArms(arms, tail)
	case *ast.ForStmt:
		return w.seqFor(s, tail)
	case *ast.RangeStmt:
		return w.seqRange(s, tail)
	default:
		var seq string
		for _, e := range stmtExprs(s) {
			seq += w.exprSeq(e)
		}
		return cseq{seq: seq}.then(tail)
	}
}

func (w *collWalker) seqIf(s *ast.IfStmt, tail cseq) cseq {
	var init string
	if s.Init != nil {
		for _, e := range stmtExprs(s.Init) {
			init += w.exprSeq(e)
		}
	}
	init += w.exprSeq(s.Cond)
	thenPath := w.seqStmts(s.Body.List, tail)
	elsePath := tail
	if s.Else != nil {
		elsePath = w.seqStmt(s.Else, tail)
	}
	if w.tainted(s.Cond) && thenPath.seq != elsePath.seq && (hasColl(thenPath.seq) || hasColl(elsePath.seq)) {
		w.pass.Reportf(s.Pos(),
			"collective sequence depends on thread-conditional branch: %s vs %s — all threads must reach the same collectives",
			renderSeq(thenPath), renderSeq(elsePath))
	}
	return cseq{seq: init}.then(mergeTwo(thenPath, elsePath))
}

func (w *collWalker) seqSwitch(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, at ast.Stmt, tail cseq) cseq {
	var pre string
	if init != nil {
		for _, e := range stmtExprs(init) {
			pre += w.exprSeq(e)
		}
	}
	dep := tag != nil && w.tainted(tag)
	hasDefault := false
	var arms []cseq
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			pre += w.exprSeq(e)
			if w.tainted(e) {
				dep = true
			}
		}
		arms = append(arms, w.seqStmts(cc.Body, tail))
	}
	if !hasDefault {
		arms = append(arms, tail) // fallthrough past the switch
	}
	if dep {
		for i := 1; i < len(arms); i++ {
			if arms[i].seq != arms[0].seq && (hasColl(arms[i].seq) || hasColl(arms[0].seq)) {
				w.pass.Reportf(at.Pos(),
					"collective sequence depends on thread-conditional switch: %s vs %s — all threads must reach the same collectives",
					renderSeq(arms[0]), renderSeq(arms[i]))
				break
			}
		}
	}
	return cseq{seq: pre}.then(mergeArms(arms, tail))
}

func (w *collWalker) seqFor(s *ast.ForStmt, tail cseq) cseq {
	var pre string
	if s.Init != nil {
		for _, e := range stmtExprs(s.Init) {
			pre += w.exprSeq(e)
		}
	}
	pre += w.exprSeq(s.Cond)
	body := w.seqStmts(s.Body.List, cseq{})
	if s.Post != nil {
		for _, e := range stmtExprs(s.Post) {
			body.seq += w.exprSeq(e)
		}
	}
	if hasColl(body.seq) && w.loopTripTainted(s) {
		w.pass.Reportf(s.Pos(),
			"collective inside loop with thread-dependent trip count: %s — threads execute different numbers of iterations and misalign",
			renderSeq(cseq{seq: body.seq}))
	}
	el := ""
	if hasColl(body.seq) {
		el = "loop(" + strings.TrimSpace(body.seq) + ") "
	}
	return cseq{seq: pre + el}.then(tail)
}

func (w *collWalker) seqRange(s *ast.RangeStmt, tail cseq) cseq {
	pre := w.exprSeq(s.X)
	body := w.seqStmts(s.Body.List, cseq{})
	if hasColl(body.seq) && w.tainted(s.X) {
		w.pass.Reportf(s.Pos(),
			"collective inside range over thread-dependent data: %s — threads execute different numbers of iterations and misalign",
			renderSeq(cseq{seq: body.seq}))
	}
	el := ""
	if hasColl(body.seq) {
		el = "loop(" + strings.TrimSpace(body.seq) + ") "
	}
	return cseq{seq: pre + el}.then(tail)
}

func (w *collWalker) loopTripTainted(s *ast.ForStmt) bool {
	if s.Cond != nil && w.tainted(s.Cond) {
		return true
	}
	for _, st := range []ast.Stmt{s.Init, s.Post} {
		if st == nil {
			continue
		}
		for _, e := range stmtExprs(st) {
			if w.tainted(e) {
				return true
			}
		}
	}
	return false
}

func mergeTwo(a, b cseq) cseq {
	if a.seq == b.seq && a.term == b.term {
		return a
	}
	return cseq{seq: "(" + strings.TrimSpace(a.seq) + "|" + strings.TrimSpace(b.seq) + ") ", term: a.term && b.term}
}

func mergeArms(arms []cseq, tail cseq) cseq {
	if len(arms) == 0 {
		return tail
	}
	out := arms[0]
	for _, a := range arms[1:] {
		out = mergeTwo(out, a)
	}
	return out
}

// exprSeq emits the collective tokens of one expression in evaluation
// order: arguments before the call itself, function literals inline at
// their lexical position (which also walks their bodies for nested
// thread-conditional collectives). Collective tokens carry a § marker
// so mixed call/collective sequences stay distinguishable after the
// human-readable rendering strips it.
func (w *collWalker) exprSeq(e ast.Expr) string {
	if e == nil {
		return ""
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		body := w.seqStmts(e.Body.List, cseq{})
		return body.seq
	case *ast.CallExpr:
		var seq string
		seq += w.exprSeq(e.Fun)
		for _, a := range e.Args {
			seq += w.exprSeq(a)
		}
		if name, ok := CollectiveCall(w.pass.Info, e); ok {
			return seq + "§" + name + " "
		}
		if fn := calleeFunc(w.pass.Info, e); fn != nil && w.pass.Prog.MayCollect(FuncKey(fn)) {
			return seq + "§call:" + fn.Name() + " "
		}
		return seq
	case *ast.BinaryExpr:
		return w.exprSeq(e.X) + w.exprSeq(e.Y)
	case *ast.UnaryExpr:
		return w.exprSeq(e.X)
	case *ast.StarExpr:
		return w.exprSeq(e.X)
	case *ast.SelectorExpr:
		return w.exprSeq(e.X)
	case *ast.IndexExpr:
		return w.exprSeq(e.X) + w.exprSeq(e.Index)
	case *ast.IndexListExpr:
		return w.exprSeq(e.X)
	case *ast.SliceExpr:
		return w.exprSeq(e.X) + w.exprSeq(e.Low) + w.exprSeq(e.High) + w.exprSeq(e.Max)
	case *ast.KeyValueExpr:
		return w.exprSeq(e.Value)
	case *ast.CompositeLit:
		var seq string
		for _, el := range e.Elts {
			seq += w.exprSeq(el)
		}
		return seq
	case *ast.TypeAssertExpr:
		return w.exprSeq(e.X)
	}
	return ""
}

// stmtExprs lists the top-level expressions of a simple statement.
func stmtExprs(s ast.Stmt) []ast.Expr {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return []ast.Expr{s.X}
	case *ast.AssignStmt:
		return append(append([]ast.Expr{}, s.Rhs...), s.Lhs...)
	case *ast.IncDecStmt:
		return []ast.Expr{s.X}
	case *ast.SendStmt:
		return []ast.Expr{s.Value, s.Chan}
	case *ast.GoStmt:
		return []ast.Expr{s.Call}
	case *ast.DeferStmt:
		return []ast.Expr{s.Call}
	case *ast.DeclStmt:
		var out []ast.Expr
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					out = append(out, vs.Values...)
				}
			}
		}
		return out
	}
	return nil
}
