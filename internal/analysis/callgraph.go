// Call-graph and summary infrastructure: the interprocedural layer the
// concurrency analyzers (collalign.go, sharedrace.go) build on. A
// Program holds every analysis unit of one upcvet run, a module-wide
// call graph over them, and a per-analyzer summary store, so facts
// proven about a function in one package (for example "may execute a
// collective") are visible when another package calls it.
//
// Function identity is the types.Func full name
// ("(*repro/internal/upc.Thread).Barrier"), not the *types.Func
// pointer: a package type-checked once as an analysis unit and again as
// an import of another unit yields distinct types.Func objects for the
// same source function, and the string name is what unifies them.
package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"time"
)

// A Program is one upcvet run's worth of loaded units plus the
// interprocedural state shared by every analyzer pass: the call graph,
// the collective-reachability fixpoint, and the summary store. Loading
// the module tree once into a Program and reusing it across all
// analyzers is also what keeps the eight-analyzer run inside the CI
// wall-clock budget.
type Program struct {
	Units []*Package
	// Stats accumulates wall-clock cost per analyzer (and the "load"
	// pseudo-entry), reported by upcvet -stats.
	Stats map[string]time.Duration //upcvet:wallclock -- host-side tooling metrics, not simulation state

	built     bool
	nodes     map[string]*FuncNode
	summaries map[string]map[string]any
}

// A FuncNode is one function in the call graph.
type FuncNode struct {
	// Name is the types.Func full name, the graph key.
	Name string
	// Decl is the declaration carrying the body, with Unit the analysis
	// unit it was parsed in.
	Decl *ast.FuncDecl
	Unit *Package
	// Callees lists the full names of statically resolved callees,
	// sorted and deduplicated. Calls through function values are not
	// resolved (and therefore assumed non-collective).
	Callees []string
	// DirectCollective records a call to a recognized collective
	// operation (Barrier, AllReduce, ...) in the
	// body; MayCollect closes it over Callees.
	DirectCollective bool
	MayCollect       bool
}

// NewProgram builds a Program over the given units. The call graph is
// constructed lazily on first query.
func NewProgram(units []*Package) *Program {
	return &Program{
		Units:     units,
		Stats:     map[string]time.Duration{},
		summaries: map[string]map[string]any{},
	}
}

// FuncKey returns the call-graph key for a resolved function.
func FuncKey(fn *types.Func) string { return fn.FullName() }

// Node returns the call-graph node for a full name, or nil when no
// loaded unit declares the function.
func (prog *Program) Node(name string) *FuncNode {
	prog.build()
	return prog.nodes[name]
}

// FuncNames lists every declared function in the graph, sorted.
func (prog *Program) FuncNames() []string {
	prog.build()
	names := make([]string, 0, len(prog.nodes))
	for name := range prog.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// MayCollect reports whether calling the named function may execute a
// collective operation, by the interprocedural fixpoint. Unknown
// functions (no body in any loaded unit) report false; callers should
// first test the call itself with CollectiveCall, which needs no body.
func (prog *Program) MayCollect(name string) bool {
	prog.build()
	n := prog.nodes[name]
	return n != nil && n.MayCollect
}

// Reachable reports whether the call graph has a path from one declared
// function to another.
func (prog *Program) Reachable(from, to string) bool {
	prog.build()
	if prog.nodes[from] == nil {
		return false
	}
	seen := map[string]bool{from: true}
	work := []string{from}
	for len(work) > 0 {
		cur := work[0]
		work = work[1:]
		if cur == to {
			return true
		}
		if n := prog.nodes[cur]; n != nil {
			for _, c := range n.Callees {
				if !seen[c] {
					seen[c] = true
					work = append(work, c)
				}
			}
		}
	}
	return false
}

// Summary retrieves a fact a pass stored for (analyzer, function key).
func (prog *Program) Summary(analyzer, key string) (any, bool) {
	m, ok := prog.summaries[analyzer]
	if !ok {
		return nil, false
	}
	v, ok := m[key]
	return v, ok
}

// SetSummary stores a fact for (analyzer, function key).
func (prog *Program) SetSummary(analyzer, key string, v any) {
	m := prog.summaries[analyzer]
	if m == nil {
		m = map[string]any{}
		prog.summaries[analyzer] = m
	}
	m[key] = v
}

func (prog *Program) build() {
	if prog.built {
		return
	}
	prog.built = true
	prog.nodes = map[string]*FuncNode{}
	for _, unit := range prog.Units {
		for _, decl := range funcBodies(unit.Files) {
			fn, ok := unit.Info.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			name := FuncKey(fn)
			if prog.nodes[name] != nil {
				continue // already seen (base unit before its test unit)
			}
			node := &FuncNode{Name: name, Decl: decl, Unit: unit}
			callees := map[string]bool{}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, ok := CollectiveCall(unit.Info, call); ok {
					node.DirectCollective = true
				}
				if fn := calleeFunc(unit.Info, call); fn != nil {
					callees[FuncKey(fn)] = true
				}
				return true
			})
			for c := range callees {
				node.Callees = append(node.Callees, c)
			}
			sort.Strings(node.Callees)
			prog.nodes[name] = node
		}
	}
	// Close DirectCollective over the edges: a function may collect when
	// its body calls a collective or any callee may collect.
	for changed := true; changed; {
		changed = false
		for _, n := range prog.nodes {
			if n.MayCollect {
				continue
			}
			if n.DirectCollective {
				n.MayCollect = true
				changed = true
				continue
			}
			for _, c := range n.Callees {
				if m := prog.nodes[c]; m != nil && m.MayCollect {
					n.MayCollect = true
					changed = true
					break
				}
			}
		}
	}
}

// ---- Collective-operation recognition ----
//
// Like the rest of the suite, collectives are keyed on names rather
// than import paths so the testdata stub types trigger the same logic:
// barrier-family method names on any receiver and the upc package-level
// collective functions (the Alloc family is collective too: allocation
// ends in a barrier).

var collectiveMethods = map[string]bool{
	"Barrier":    true,
	"BarrierErr": true,
}

var collectiveFuncs = map[string]bool{
	"AllReduce":    true,
	"AllReduceSum": true,
	"Alloc":        true,
	"Alloc2D":      true,
	"AllocLock":    true,
}

// CollectiveCall reports whether the call is a recognized collective
// operation, returning its display name.
func CollectiveCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	if fn.Type().(*types.Signature).Recv() != nil {
		return name, collectiveMethods[name]
	}
	return name, collectiveFuncs[name]
}

// recvTypeName is the lower-cased defined-type name behind a receiver
// (or any) type, pointers and instantiations stripped.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return strings.ToLower(n.Obj().Name())
	}
	return ""
}

// ---- Thread-identity taint ----
//
// The concurrency analyzers need to know when a value depends on the
// executing thread's identity: MYTHREAD, Thread.ID, Group.Rank.
// threadTaint computes the per-function set of local variables carrying
// such values; threadDepExpr tests one expression against it. Results
// of collective calls are replicated across threads, so a collective
// call cleanses taint — the classic n := AllReduceSum(t, mine) loop
// bound is uniform even though the contribution was not.

// threadIdentExpr reports whether e itself denotes the executing
// thread's identity.
func threadIdentExpr(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name == "MYTHREAD"
	case *ast.SelectorExpr:
		tv, ok := info.Types[e.X]
		if !ok {
			return false
		}
		switch e.Sel.Name {
		case "ID":
			return recvTypeName(tv.Type) == "thread"
		case "Rank":
			return recvTypeName(tv.Type) == "group"
		}
	}
	return false
}

// threadDepExpr reports whether any part of e depends on thread
// identity, under the given taint set. It does not descend into
// collective calls (replicated results) or function literals (creating
// a closure is not itself thread-dependent).
func threadDepExpr(info *types.Info, e ast.Expr, taint map[types.Object]bool) bool {
	if e == nil {
		return false
	}
	dep := false
	ast.Inspect(e, func(n ast.Node) bool {
		if dep {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if _, ok := CollectiveCall(info, n); ok {
				return false
			}
			if threadIdentExpr(info, n) {
				dep = true
				return false
			}
		case *ast.SelectorExpr:
			if threadIdentExpr(info, n) {
				dep = true
				return false
			}
		case *ast.Ident:
			if n.Name == "MYTHREAD" || taint[info.ObjectOf(n)] {
				dep = true
				return false
			}
		}
		return true
	})
	return dep
}

// threadTaint computes the set of objects assigned thread-dependent
// values anywhere in the declaration (function literals included —
// closures share the enclosing frame).
func threadTaint(info *types.Info, decl *ast.FuncDecl) map[types.Object]bool {
	taint := map[types.Object]bool{}
	mark := func(e ast.Expr, dep bool) bool {
		if !dep {
			return false
		}
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		obj := info.ObjectOf(id)
		if obj == nil || taint[obj] {
			return false
		}
		taint[obj] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						dep := threadDepExpr(info, n.Rhs[i], taint)
						if n.Tok.String() != "=" && n.Tok.String() != ":=" {
							// Op-assign reads the LHS too; x ^= tainted taints x.
							dep = dep || threadDepExpr(info, lhs, taint)
						}
						if mark(lhs, dep) {
							changed = true
						}
					}
				} else {
					dep := false
					for _, rhs := range n.Rhs {
						dep = dep || threadDepExpr(info, rhs, taint)
					}
					for _, lhs := range n.Lhs {
						if mark(lhs, dep) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				if threadDepExpr(info, n.X, taint) {
					if mark(n.Key, true) {
						changed = true
					}
					if n.Value != nil && mark(n.Value, true) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				dep := false
				for _, v := range n.Values {
					dep = dep || threadDepExpr(info, v, taint)
				}
				if dep {
					for _, name := range n.Names {
						if mark(name, true) {
							changed = true
						}
					}
				}
			}
			return true
		})
	}
	return taint
}
