// The sharedrace analyzer: phase-based race detection on Shared /
// Shared2D arrays.
//
// The UPC memory model the runtime simulates is barrier-synchronized:
// between two collectives ("a synchronization phase"), threads may
// touch remote partitions freely only if the accesses are
// affinity-disjoint. sharedrace partitions every function into phases
// delimited by collectives (interprocedurally — a callee that barriers
// advances the caller's phase, via the callgraph.go summaries), collects
// every access to a shared array with its phase, and flags same-phase
// pairs that may conflict: same array, at least one write, and no
// evidence of disjointness.
//
// Disjointness evidence, modeled on the corpus idioms:
//
//   - both accesses through the local partition (Local/Tile, owner ==
//     t.ID): each thread touches its own blocks;
//   - both through the same thread-bijective owner expression (stream's
//     peer := t.ID ^ 1): the owner map is a permutation, partitions
//     stay disjoint;
//   - both writes at thread-keyed offsets (ft's all-to-all
//     dstOff = t.ID*B): every writer owns a distinct stripe;
//   - either access inside a lexical Lock/TryLock..Unlock span (UTS's
//     steal protocol) or under a nil-guarded Cast span (the castability
//     contract the affinity analyzer enforces);
//   - both under the same solo-executor guard (if t.ID == root);
//   - the accesses sit in sibling arms of a branch whose condition is
//     thread-uniform: all threads take the same arm, the accesses never
//     coexist.
//
// Loops containing collectives are walked twice so the tail of
// iteration k shares a phase with the head of iteration k+1 — deleting
// the barrier at the bottom of a stencil loop is exactly the bug this
// must catch. Collectives inside an SPMD closure (a function literal
// taking the thread) do not make an enclosing host loop a phase loop:
// each iteration launches a fresh run.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
)

// Sharedrace flags same-phase conflicting accesses to shared arrays.
var Sharedrace = &Analyzer{
	Name: "sharedrace",
	Doc: "accesses to Shared/Shared2D arrays in the same synchronization phase must be affinity-disjoint.\n" +
		"           Flags same-phase write/read and write/write pairs on one array without ownership,\n" +
		"           lock, cast-guard or bijective-owner evidence (interprocedural, phase-accurate).",
	Run: runSharedrace,
}

// Access classes, by strength of the ownership evidence.
const (
	clUnknown = iota
	clSelf    // local partition: Local/Tile or owner == t.ID
	clBij     // owner is a thread-bijective expression (t.ID^1, (t.ID+d)%t.N)
	clKeyed   // offset carries a t.ID-keyed stripe (dstOff = t.ID*B)
)

type branchStep struct {
	id  string // condition position
	arm int
	dep bool // thread-dependent condition: arms coexist across threads
}

type raceAccess struct {
	arr      string // array identity: defining position of the var/field, or "#parmN"
	arrName  string // display name ("a", "w.recv")
	parm     int    // parameter index when the array is a callee parameter, else -1
	write    bool
	class    int
	ownerKey string // identity of the owner expression for clBij/clSelf
	exempt   bool   // lock-held or nil-guarded Cast span
	solo     string // innermost solo-executor guard text
	branch   []branchStep
	phase    int // collective count from function entry
	pos      token.Pos
}

// A raceSummary is one function's flattened access/phase behavior:
// every shared access with its phase relative to entry, and how many
// phases the function advances.
type raceSummary struct {
	accs  []raceAccess
	delta int
}

// raceState memoizes summaries across the whole program run.
type raceState struct {
	sums       map[string]*raceSummary
	inProgress map[string]bool
}

func raceStateOf(prog *Program) *raceState {
	if v, ok := prog.Summary("sharedrace", "#state"); ok {
		return v.(*raceState)
	}
	st := &raceState{sums: map[string]*raceSummary{}, inProgress: map[string]bool{}}
	prog.SetSummary("sharedrace", "#state", st)
	return st
}

func (st *raceState) summaryOf(prog *Program, key string) *raceSummary {
	if s, ok := st.sums[key]; ok {
		return s
	}
	if st.inProgress[key] {
		return nil // recursion: cut the cycle, under-approximate
	}
	node := prog.Node(key)
	if node == nil {
		return nil
	}
	st.inProgress[key] = true
	w := newRaceWalker(prog, st, node.Unit, node.Decl)
	sum := w.summarize()
	delete(st.inProgress, key)
	st.sums[key] = sum
	return sum
}

func runSharedrace(pass *Pass) error {
	st := raceStateOf(pass.Prog)
	local := map[string]bool{}
	for _, f := range pass.Files {
		local[pass.Fset.Position(f.Pos()).Filename] = true
	}
	reported := map[string]bool{}
	for _, decl := range funcBodies(pass.Files) {
		fn, ok := pass.Info.Defs[decl.Name].(*types.Func)
		if !ok {
			continue
		}
		sum := st.summaryOf(pass.Prog, FuncKey(fn))
		if sum == nil {
			continue
		}
		checkConflicts(pass, sum, local, reported)
	}
	return nil
}

func checkConflicts(pass *Pass, sum *raceSummary, local, reported map[string]bool) {
	byArr := map[string][]int{}
	var arrs []string
	for i, a := range sum.accs {
		if len(byArr[a.arr]) == 0 {
			arrs = append(arrs, a.arr)
		}
		byArr[a.arr] = append(byArr[a.arr], i)
	}
	sort.Strings(arrs)
	for _, arr := range arrs {
		idx := byArr[arr]
		for x := 0; x < len(idx); x++ {
			for y := x + 1; y < len(idx); y++ {
				a, b := sum.accs[idx[x]], sum.accs[idx[y]]
				if conflict(a, b) {
					reportPair(pass, a, b, local, reported)
				}
			}
		}
	}
}

func conflict(a, b raceAccess) bool {
	if !a.write && !b.write {
		return false
	}
	if a.phase != b.phase || a.pos == b.pos {
		return false
	}
	if a.exempt || b.exempt {
		return false
	}
	if a.class == clSelf && b.class == clSelf {
		return false
	}
	if a.class == clBij && b.class == clBij && a.ownerKey != "" && a.ownerKey == b.ownerKey {
		return false
	}
	if a.class == clKeyed && b.class == clKeyed {
		// Both accesses stripe by the thread identity (off = t.ID*B):
		// distinct threads touch distinct stripes, the same thread is
		// ordered by program order.
		return false
	}
	if a.solo != "" && a.solo == b.solo {
		return false
	}
	if exclusiveBranches(a.branch, b.branch) {
		return false
	}
	return true
}

func exclusiveBranches(a, b []branchStep) bool {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			continue
		}
		return a[i].id == b[i].id && a[i].arm != b[i].arm && !a[i].dep
	}
	return false
}

func reportPair(pass *Pass, a, b raceAccess, local, reported map[string]bool) {
	pa, pb := pass.Fset.Position(a.pos), pass.Fset.Position(b.pos)
	// Anchor on the later access, preferring a position inside this
	// unit; pairs entirely outside it belong to the unit that owns them.
	if pb.Filename < pa.Filename || (pb.Filename == pa.Filename && pb.Line < pa.Line) {
		a, b = b, a
		pa, pb = pb, pa
	}
	anchor, other := b, a
	pAnchor, pOther := pb, pa
	if !local[pAnchor.Filename] {
		anchor, other = a, b
		pAnchor, pOther = pa, pb
	}
	if !local[pAnchor.Filename] {
		return
	}
	key := fmt.Sprintf("%s:%d|%s:%d", pa.Filename, pa.Line, pb.Filename, pb.Line)
	if reported[key] {
		return
	}
	reported[key] = true
	if pass.suppressedAt(a.pos) || pass.suppressedAt(b.pos) {
		return
	}
	if os.Getenv("UPCVET_DEBUG") != "" {
		fmt.Printf("DBG %s phase=%d class=%d ok=%q solo=%q br=%v | %s phase=%d class=%d ok=%q solo=%q br=%v\n",
			pa, a.phase, a.class, a.ownerKey, a.solo, a.branch, pb, b.phase, b.class, b.ownerKey, b.solo, b.branch)
	}
	kind := func(acc raceAccess) string {
		if acc.write {
			return "write"
		}
		return "read"
	}
	pass.Reportf(anchor.pos,
		"same-phase accesses to shared array %q may conflict: %s here and %s at %s:%d — separate them with a collective or make the indexing affinity-disjoint",
		anchor.arrName, kind(anchor), kind(other), filepath.Base(pOther.Filename), pOther.Line)
}

// ---- The walker ----

type aliasInfo struct {
	arr      string
	arrName  string
	parm     int
	class    int
	ownerKey string
	fromCast bool
}

type raceWalker struct {
	prog *Program
	st   *raceState
	unit *Package
	decl *ast.FuncDecl

	taint   map[types.Object]bool
	params  map[types.Object]int
	assigns map[types.Object][]ast.Expr
	aliases map[types.Object]*aliasInfo
	guarded map[types.Object]bool

	phase   int
	spmd    int // phases advanced inside SPMD closures (never wrap a host loop)
	locks   int // flow-tracked Lock/TryLock depth; accesses under it are exempt
	maxExit int
	branch  []branchStep
	solo    string
	accs    []raceAccess
}

func newRaceWalker(prog *Program, st *raceState, unit *Package, decl *ast.FuncDecl) *raceWalker {
	w := &raceWalker{
		prog:    prog,
		st:      st,
		unit:    unit,
		decl:    decl,
		taint:   threadTaint(unit.Info, decl),
		params:  map[types.Object]int{},
		assigns: map[types.Object][]ast.Expr{},
		aliases: map[types.Object]*aliasInfo{},
		guarded: map[types.Object]bool{},
	}
	i := 0
	for _, f := range decl.Type.Params.List {
		for _, name := range f.Names {
			if obj := unit.Info.Defs[name]; obj != nil && sharedArrayType(obj.Type()) {
				w.params[obj] = i
			}
			i++
		}
		if len(f.Names) == 0 {
			i++
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for j, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if obj := unit.Info.ObjectOf(id); obj != nil {
							w.assigns[obj] = append(w.assigns[obj], n.Rhs[j])
						}
					}
				}
			}
		}
		return true
	})
	return w
}

func (w *raceWalker) summarize() *raceSummary {
	w.stmts(w.decl.Body.List)
	if w.phase > w.maxExit {
		w.maxExit = w.phase
	}
	return &raceSummary{accs: w.accs, delta: w.maxExit}
}

func (w *raceWalker) tainted(e ast.Expr) bool {
	return threadDepExpr(w.unit.Info, e, w.taint)
}

// ---- statements ----

func (w *raceWalker) stmts(list []ast.Stmt) bool {
	pushed := 0
	term := false
	for _, s := range list {
		// `if cond { ...; return }` with no else: the lexical remainder
		// is the else arm. Recording it as such lets uniform early-exit
		// guards (if cfg.Verify { ...; return }) make the two paths
		// mutually exclusive.
		if ifs, ok := s.(*ast.IfStmt); ok {
			if w.ifStmt(ifs) {
				w.pushStep(ifs.Pos(), 1, w.tainted(ifs.Cond))
				pushed++
			}
			continue
		}
		if w.stmt(s) {
			term = true
			break
		}
	}
	for ; pushed > 0; pushed-- {
		w.popStep()
	}
	return term
}

func (w *raceWalker) stmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
		if w.phase > w.maxExit {
			w.maxExit = w.phase
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.IfStmt:
		w.ifStmt(s)
		return false // remainder-step handling lives in stmts
	case *ast.SwitchStmt:
		return w.switchStmt(s.Init, s.Tag, s.Body)
	case *ast.TypeSwitchStmt:
		return w.switchStmt(s.Init, nil, s.Body)
	case *ast.SelectStmt:
		entry, entryLocks := w.phase, w.locks
		exit, exitLocks := entry, entryLocks
		for i, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				w.phase, w.locks = entry, entryLocks
				w.pushStep(s.Pos(), i, false)
				w.stmts(cc.Body)
				w.popStep()
				exit, exitLocks = max(exit, w.phase), max(exitLocks, w.locks)
			}
		}
		w.phase, w.locks = exit, exitLocks
		return false
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		walkBody := func() {
			w.stmts(s.Body.List)
			if s.Post != nil {
				w.stmt(s.Post)
			}
		}
		before, spmd := w.phase, w.spmd
		walkBody()
		if w.phase-before > w.spmd-spmd {
			// The loop itself contains collectives: walk again so
			// iteration k's tail shares a phase with iteration k+1's
			// head.
			walkBody()
		}
		return false
	case *ast.RangeStmt:
		w.expr(s.X)
		before, spmd := w.phase, w.spmd
		w.stmts(s.Body.List)
		if w.phase-before > w.spmd-spmd {
			w.stmts(s.Body.List)
		}
		return false
	case *ast.GoStmt:
		w.expr(s.Call)
		return false
	case *ast.DeferStmt:
		// A deferred Unlock runs at function exit: the lock stays held
		// for the lexical remainder, so skip the depth decrement.
		if fn := calleeFunc(w.unit.Info, s.Call); fn != nil && fn.Type().(*types.Signature).Recv() != nil && fn.Name() == "Unlock" {
			for _, a := range s.Call.Args {
				w.expr(a)
			}
			return false
		}
		w.expr(s.Call)
		return false
	case *ast.AssignStmt:
		w.assignStmt(s)
		return false
	case *ast.ExprStmt:
		w.expr(s.X)
		return false
	case *ast.IncDecStmt:
		if idx, ok := ast.Unparen(s.X).(*ast.IndexExpr); ok {
			w.indexAccess(idx, true)
		} else {
			w.expr(s.X)
		}
		return false
	case *ast.SendStmt:
		w.expr(s.Value)
		w.expr(s.Chan)
		return false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
		return false
	}
	return false
}

func (w *raceWalker) assignStmt(s *ast.AssignStmt) {
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			lhs, rhs := s.Lhs[i], s.Rhs[i]
			id, isIdent := ast.Unparen(lhs).(*ast.Ident)
			if isIdent && (s.Tok == token.DEFINE || s.Tok == token.ASSIGN) {
				if ai, ok := w.resolveSlice(rhs); ok {
					// Alias creation, not an access: la := a.Local(t).
					w.walkOwnerArgs(rhs)
					if obj := w.unit.Info.ObjectOf(id); obj != nil {
						w.aliases[obj] = ai
					}
					continue
				}
			}
			w.expr(rhs)
			w.lhsExpr(lhs, s.Tok != token.DEFINE && s.Tok != token.ASSIGN)
		}
		return
	}
	for _, rhs := range s.Rhs {
		w.expr(rhs)
	}
	for _, lhs := range s.Lhs {
		w.lhsExpr(lhs, false)
	}
}

// lhsExpr records the write of one assignment target. Op-assigns
// (x[i] ^= v) read the target too, but the write already dominates the
// conflict rules.
func (w *raceWalker) lhsExpr(lhs ast.Expr, opAssign bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		if !w.indexAccess(lhs, true) {
			w.expr(lhs.X)
			w.expr(lhs.Index)
		}
	case *ast.Ident:
		// Plain variable rebind; nothing shared is touched.
	default:
		w.expr(lhs)
	}
}

// ifStmt walks an if statement and reports whether the then arm
// terminates with no else present, so the caller can treat the lexical
// remainder as the else arm.
func (w *raceWalker) ifStmt(s *ast.IfStmt) bool {
	if s.Init != nil {
		w.stmt(s.Init)
	}
	w.expr(s.Cond)
	dep := w.tainted(s.Cond)
	entry, entryLocks := w.phase, w.locks
	var exits, lockExits []int

	// Then arm.
	w.pushStep(s.Pos(), 0, dep)
	savedSolo := w.solo
	if w.solo == "" {
		if g := soloGuard(w.unit.Info, s.Cond); g != "" {
			w.solo = g
		}
	}
	restore := w.guardAliases(s.Cond, true)
	t1 := w.stmts(s.Body.List)
	w.solo = savedSolo
	restore()
	w.popStep()
	if !t1 {
		exits = append(exits, w.phase)
		lockExits = append(lockExits, w.locks)
	}
	p1 := w.phase
	w.phase, w.locks = entry, entryLocks

	// Else arm (or fallthrough).
	t2 := false
	if s.Else != nil {
		w.pushStep(s.Pos(), 1, dep)
		restore := w.guardAliases(s.Cond, false)
		t2 = w.stmt(s.Else)
		restore()
		w.popStep()
	}
	if !t2 {
		exits = append(exits, w.phase)
		lockExits = append(lockExits, w.locks)
	}
	w.phase, w.locks = entry, entryLocks
	for i, e := range exits {
		w.phase = max(w.phase, e)
		w.locks = max(w.locks, lockExits[i])
	}
	if len(exits) == 0 {
		w.phase = max(p1, w.phase)
	}
	// `if x == nil { return }` guards x for the lexical remainder.
	if t1 && s.Else == nil {
		for _, obj := range nilCheckedAliases(w.unit.Info, s.Cond, false) {
			w.guarded[obj] = true
		}
	}
	return t1 && s.Else == nil
}

func (w *raceWalker) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt) bool {
	if init != nil {
		w.stmt(init)
	}
	dep := tag != nil && w.tainted(tag)
	if tag != nil {
		w.expr(tag)
	}
	entry, entryLocks := w.phase, w.locks
	var exits, lockExits []int
	hasDefault := false
	allTerm := true
	for i, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			if w.tainted(e) {
				dep = true
			}
			w.expr(e)
		}
		w.phase, w.locks = entry, entryLocks
		w.pushStep(body.Pos(), i, dep)
		term := w.stmts(cc.Body)
		w.popStep()
		if !term {
			exits = append(exits, w.phase)
			lockExits = append(lockExits, w.locks)
			allTerm = false
		}
	}
	w.phase, w.locks = entry, entryLocks
	for i, e := range exits {
		w.phase = max(w.phase, e)
		w.locks = max(w.locks, lockExits[i])
	}
	return hasDefault && allTerm
}

func (w *raceWalker) pushStep(pos token.Pos, arm int, dep bool) {
	w.branch = append(w.branch, branchStep{id: w.unit.Fset.Position(pos).String(), arm: arm, dep: dep})
}

func (w *raceWalker) popStep() { w.branch = w.branch[:len(w.branch)-1] }

// guardAliases marks the aliases proven non-nil inside one arm of a
// nil-check condition, returning the restore function.
func (w *raceWalker) guardAliases(cond ast.Expr, thenArm bool) func() {
	objs := nilCheckedAliases(w.unit.Info, cond, thenArm)
	var added []types.Object
	for _, obj := range objs {
		if !w.guarded[obj] {
			w.guarded[obj] = true
			added = append(added, obj)
		}
	}
	return func() {
		for _, obj := range added {
			delete(w.guarded, obj)
		}
	}
}

// nilCheckedAliases extracts the idents proven non-nil when cond holds
// (thenArm) or fails (!thenArm): x != nil conjuncts for then-arms,
// x == nil for else-arms.
func nilCheckedAliases(info *types.Info, cond ast.Expr, thenArm bool) []types.Object {
	var out []types.Object
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		be, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case token.LAND:
			if thenArm {
				walk(be.X)
				walk(be.Y)
			}
		case token.LOR:
			if !thenArm {
				walk(be.X)
				walk(be.Y)
			}
		case token.NEQ, token.EQL:
			want := token.NEQ
			if !thenArm {
				want = token.EQL
			}
			if be.Op != want {
				return
			}
			x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
			if isNilIdent(y) {
				x, y = y, x
			}
			if !isNilIdent(x) {
				return
			}
			if id, ok := y.(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					out = append(out, obj)
				}
			}
		}
	}
	walk(cond)
	return out
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// soloGuard renders a `t.ID == uniform` condition, or "".
func soloGuard(info *types.Info, cond ast.Expr) string {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return ""
	}
	x, y := be.X, be.Y
	if threadIdentExpr(info, y) {
		x, y = y, x
	}
	if threadIdentExpr(info, x) && !threadDepExpr(info, y, nil) {
		return types.ExprString(ast.Unparen(be.X)) + "==" + types.ExprString(ast.Unparen(be.Y))
	}
	return ""
}

// ---- expressions ----

// accessSpec describes one shared-access API function: which argument
// is the array, which the owner (partition index) or global element
// index, which the offset, and whether it writes.
type accessSpec struct {
	arr, owner, idx, off int
	write                bool
}

var accessFuncs = map[string]accessSpec{
	"PutT":         {arr: 1, owner: 2, idx: -1, off: 3, write: true},
	"PutAsyncT":    {arr: 1, owner: 2, idx: -1, off: 3, write: true},
	"PutTErr":      {arr: 1, owner: 2, idx: -1, off: 3, write: true},
	"PutAsyncTErr": {arr: 1, owner: 2, idx: -1, off: 3, write: true},
	"GetT":         {arr: 1, owner: 3, idx: -1, off: 4, write: false},
	"GetAsyncT":    {arr: 1, owner: 3, idx: -1, off: 4, write: false},
	"GetTErr":      {arr: 1, owner: 3, idx: -1, off: 4, write: false},
	"GetAsyncTErr": {arr: 1, owner: 3, idx: -1, off: 4, write: false},
	"ReadElem":     {arr: 1, owner: -1, idx: 2, off: -1, write: false},
	"ReadElemErr":  {arr: 1, owner: -1, idx: 2, off: -1, write: false},
	"WriteElem":    {arr: 1, owner: -1, idx: 2, off: -1, write: true},
	"WriteElemErr": {arr: 1, owner: -1, idx: 2, off: -1, write: true},
	"GetRect":      {arr: 1, owner: 3, idx: -1, off: -1, write: false},
}

func (w *raceWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		before := w.phase
		w.stmts(e.Body.List)
		if spmdClosure(w.unit.Info, e) {
			w.spmd += w.phase - before
		}
	case *ast.CallExpr:
		w.call(e)
	case *ast.IndexExpr:
		if !w.indexAccess(e, false) {
			w.expr(e.X)
		}
		w.expr(e.Index)
	case *ast.SliceExpr:
		if ai, ok := w.resolveSlice(e.X); ok {
			w.record(ai, false, e.Pos())
		} else {
			w.expr(e.X)
		}
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.Ident:
		if ai, ok := w.aliases[w.unit.Info.ObjectOf(e)]; ok {
			w.record(ai, false, e.Pos())
		}
	case *ast.BinaryExpr:
		// A nil comparison mentions an alias without touching elements.
		if (e.Op == token.EQL || e.Op == token.NEQ) && (isNilIdent(e.X) || isNilIdent(e.Y)) {
			return
		}
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.UnaryExpr:
		w.expr(e.X)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.SelectorExpr:
		w.expr(e.X)
	case *ast.IndexListExpr:
		w.expr(e.X)
	case *ast.KeyValueExpr:
		w.expr(e.Value)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el)
		}
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	}
}

// spmdClosure reports whether fl is an SPMD program body: a function
// literal taking the executing thread.
func spmdClosure(info *types.Info, fl *ast.FuncLit) bool {
	for _, f := range fl.Type.Params.List {
		if tv, ok := info.Types[f.Type]; ok && recvTypeName(tv.Type) == "thread" {
			return true
		}
	}
	return false
}

// indexAccess records x[i] when x resolves to a shared-array slice.
func (w *raceWalker) indexAccess(e *ast.IndexExpr, write bool) bool {
	ai, ok := w.resolveSlice(e.X)
	if !ok {
		return false
	}
	w.record(ai, write, e.Pos())
	w.expr(e.Index)
	return true
}

func (w *raceWalker) call(call *ast.CallExpr) {
	// Builtin copy: destination write, source read.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "copy" && len(call.Args) == 2 {
		if _, isBuiltin := w.unit.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
			if ai, ok := w.resolveSlice(call.Args[0]); ok {
				w.record(ai, true, call.Args[0].Pos())
			} else {
				w.expr(call.Args[0])
			}
			w.expr(call.Args[1])
			return
		}
	}
	fn := calleeFunc(w.unit.Info, call)
	// Shared-access API calls: record the array accesses.
	if fn != nil && fn.Type().(*types.Signature).Recv() == nil {
		if spec, ok := accessFuncs[fn.Name()]; ok {
			w.apiAccess(call, spec)
			for _, a := range call.Args {
				w.expr(a)
			}
			return
		}
	}
	// Evaluation order: arguments (and any function literals in them)
	// before the call's own effect.
	w.expr(call.Fun)
	for _, a := range call.Args {
		w.expr(a)
	}
	if _, ok := CollectiveCall(w.unit.Info, call); ok {
		w.phase++
		return
	}
	// Flow-tracked lock depth: TryLock is treated like Lock (the
	// failure arm stays exempt — under-reporting, never noise).
	if fn != nil && fn.Type().(*types.Signature).Recv() != nil {
		switch fn.Name() {
		case "Lock", "TryLock":
			w.locks++
			return
		case "Unlock":
			if w.locks > 0 {
				w.locks--
			}
			return
		}
	}
	if fn != nil {
		if sum := w.st.summaryOf(w.prog, FuncKey(fn)); sum != nil {
			w.splice(call, fn, sum)
		}
	}
}

// apiAccess records one accessSpec match on a PutT/GetT-style call.
func (w *raceWalker) apiAccess(call *ast.CallExpr, spec accessSpec) {
	if spec.arr >= len(call.Args) {
		return
	}
	arr, arrName, parm, ok := w.resolveArray(call.Args[spec.arr])
	if !ok {
		return
	}
	class, ownerKey := clUnknown, ""
	switch {
	case spec.owner >= 0 && spec.owner < len(call.Args):
		class, ownerKey = w.classifyOwner(call.Args[spec.owner])
	case spec.idx >= 0 && spec.idx < len(call.Args):
		class, ownerKey = w.classifyIndex(call.Args[spec.idx])
	}
	if class != clSelf && spec.off >= 0 && spec.off < len(call.Args) && w.offsetKeyed(call.Args[spec.off]) {
		class, ownerKey = clKeyed, ""
	}
	w.emit(raceAccess{
		arr: arr, arrName: arrName, parm: parm,
		write: spec.write, class: class, ownerKey: ownerKey,
		pos: call.Pos(),
	})
}

func (w *raceWalker) record(ai *aliasInfo, write bool, pos token.Pos) {
	w.emit(raceAccess{
		arr: ai.arr, arrName: ai.arrName, parm: ai.parm,
		write: write, class: ai.class, ownerKey: ai.ownerKey,
		pos: pos,
	})
}

func (w *raceWalker) emit(acc raceAccess) {
	acc.phase = w.phase
	acc.branch = append([]branchStep(nil), w.branch...)
	if acc.solo == "" {
		acc.solo = w.solo
	}
	acc.exempt = acc.exempt || w.locks > 0
	w.accs = append(w.accs, acc)
}

// splice inlines a callee's summary at the call site: parameter-passed
// arrays rebind to the caller's arguments, phases shift by the current
// phase, branch context and caller-side lock/solo state apply.
func (w *raceWalker) splice(call *ast.CallExpr, fn *types.Func, sum *raceSummary) {
	site := w.unit.Fset.Position(call.Pos()).String()
	callLocked := w.locks > 0
	for _, a := range sum.accs {
		b := a
		if b.arr == "" || b.parm >= 0 && len(b.arr) > 0 && b.arr[0] == '#' {
			// Parameter-passed array: rebind to the caller's argument.
			if b.parm < 0 || b.parm >= len(call.Args) {
				continue
			}
			arr, arrName, parm, ok := w.resolveArray(call.Args[b.parm])
			if !ok {
				continue
			}
			b.arr, b.arrName, b.parm = arr, arrName, parm
		}
		b.phase = w.phase + a.phase
		steps := append([]branchStep(nil), w.branch...)
		steps = append(steps, branchStep{id: site})
		b.branch = append(steps, a.branch...)
		if b.solo == "" {
			b.solo = w.solo
		}
		b.exempt = b.exempt || callLocked
		w.accs = append(w.accs, b)
	}
	w.phase += sum.delta
}

// walkOwnerArgs walks the argument expressions of an alias-creating
// call (a.Cast(t, peer)) without recording the alias itself as an
// access.
func (w *raceWalker) walkOwnerArgs(e ast.Expr) {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		for _, a := range call.Args {
			w.expr(a)
		}
	}
}

// ---- resolution and classification ----

// sharedArrayType reports whether t is (a pointer to) Shared/Shared2D.
func sharedArrayType(t types.Type) bool {
	name := recvTypeName(t)
	return name == "shared" || name == "shared2d"
}

// resolveArray identifies the shared array behind an expression: a
// local/package variable, a struct field (stable across the methods of
// one type), or a function parameter (kept symbolic for summary
// rebinding at call sites).
func (w *raceWalker) resolveArray(e ast.Expr) (key, name string, parm int, ok bool) {
	e = ast.Unparen(e)
	tv, found := w.unit.Info.Types[e]
	if !found || !sharedArrayType(tv.Type) {
		return "", "", -1, false
	}
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		obj = w.unit.Info.ObjectOf(e)
	case *ast.SelectorExpr:
		obj = w.unit.Info.ObjectOf(e.Sel)
	default:
		return "", "", -1, false
	}
	if obj == nil {
		return "", "", -1, false
	}
	if i, isParm := w.params[obj]; isParm {
		return fmt.Sprintf("#parm%d", i), types.ExprString(e), i, true
	}
	// The defining position is stable across analysis units (the same
	// file parsed for an import unit gets fresh token.Pos values, but
	// the rendered position is identical).
	return w.unit.Fset.Position(obj.Pos()).String(), types.ExprString(e), -1, true
}

// resolveSlice resolves a []T expression to the shared array it views:
// an alias variable, or a direct Local/Tile/Cast/CastTile/Partition
// call.
func (w *raceWalker) resolveSlice(e ast.Expr) (*aliasInfo, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.unit.Info.ObjectOf(e)
		if ai, ok := w.aliases[obj]; ok {
			out := *ai
			if ai.fromCast && w.guarded[obj] {
				out.class = clSelf
				out.ownerKey = "castguard"
			}
			return &out, true
		}
	case *ast.SliceExpr:
		return w.resolveSlice(e.X)
	case *ast.CallExpr:
		sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil, false
		}
		arr, arrName, parm, found := w.resolveArray(sel.X)
		if !found {
			return nil, false
		}
		switch sel.Sel.Name {
		case "Local", "Tile":
			return &aliasInfo{arr: arr, arrName: arrName, parm: parm, class: clSelf, ownerKey: "ID"}, true
		case "Cast", "CastTile":
			if len(e.Args) >= 2 {
				class, key := w.classifyOwner(e.Args[1])
				return &aliasInfo{arr: arr, arrName: arrName, parm: parm, class: class, ownerKey: key, fromCast: true}, true
			}
		case "Partition":
			if len(e.Args) >= 1 {
				class, key := w.classifyOwner(e.Args[0])
				return &aliasInfo{arr: arr, arrName: arrName, parm: parm, class: class, ownerKey: key}, true
			}
		}
	}
	return nil, false
}

// classifyOwner classifies a partition-owner expression.
func (w *raceWalker) classifyOwner(e ast.Expr) (int, string) {
	e = ast.Unparen(e)
	if threadIdentExpr(w.unit.Info, e) {
		return clSelf, "ID"
	}
	if id, ok := e.(*ast.Ident); ok {
		obj := w.unit.Info.ObjectOf(id)
		if obj == nil {
			return clUnknown, ""
		}
		rhss := w.assigns[obj]
		if len(rhss) == 0 {
			return clUnknown, ""
		}
		class := clSelf
		for _, rhs := range rhss {
			switch {
			case threadIdentExpr(w.unit.Info, ast.Unparen(rhs)):
			case w.bijExpr(rhs):
				class = clBij
			default:
				return clUnknown, ""
			}
		}
		return class, w.unit.Fset.Position(obj.Pos()).String()
	}
	if w.bijExpr(e) {
		return clBij, types.ExprString(e)
	}
	return clUnknown, ""
}

// classifyIndex classifies a global element index (ReadElem/WriteElem):
// a pure thread-identity index is the "my slot" idiom on block-1
// arrays.
func (w *raceWalker) classifyIndex(e ast.Expr) (int, string) {
	e = ast.Unparen(e)
	if threadIdentExpr(w.unit.Info, e) {
		return clSelf, "ID"
	}
	if id, ok := e.(*ast.Ident); ok {
		obj := w.unit.Info.ObjectOf(id)
		if obj != nil {
			rhss := w.assigns[obj]
			if len(rhss) > 0 {
				all := true
				for _, rhs := range rhss {
					if !threadIdentExpr(w.unit.Info, ast.Unparen(rhs)) {
						all = false
						break
					}
				}
				if all {
					return clSelf, "ID"
				}
			}
		}
	}
	return clUnknown, ""
}

// bijExpr recognizes thread-bijective owner arithmetic: an expression
// over ^ + - % * whose leaves include the thread identity — for any
// fixed values of the uniform leaves, a permutation of thread ids
// (t.ID^1, (t.ID+d)%t.N).
func (w *raceWalker) bijExpr(e ast.Expr) bool {
	hasIdent := false
	valid := true
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		if !valid {
			return
		}
		e = ast.Unparen(e)
		if threadIdentExpr(w.unit.Info, e) {
			hasIdent = true
			return
		}
		switch e := e.(type) {
		case *ast.BinaryExpr:
			switch e.Op {
			case token.XOR, token.ADD, token.SUB, token.REM, token.MUL:
				walk(e.X)
				walk(e.Y)
			default:
				valid = false
			}
		case *ast.Ident, *ast.BasicLit, *ast.SelectorExpr:
			// Uniform leaf (untainted variable, constant, field).
			if w.tainted(e) {
				valid = false
			}
		default:
			valid = false
		}
	}
	walk(e)
	return valid && hasIdent
}

// offsetKeyed recognizes a thread-keyed stripe offset: the expression
// (or the single-assignment variable holding it) contains a
// multiplicative term over the thread identity, the ft all-to-all
// dstOff = t.ID*B idiom.
func (w *raceWalker) offsetKeyed(e ast.Expr) bool {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		obj := w.unit.Info.ObjectOf(id)
		if obj == nil {
			return false
		}
		rhss := w.assigns[obj]
		if len(rhss) == 0 {
			return false
		}
		for _, rhs := range rhss {
			if !w.keyedTerm(rhs) {
				return false
			}
		}
		return true
	}
	return w.keyedTerm(e)
}

func (w *raceWalker) keyedTerm(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if be, ok := n.(*ast.BinaryExpr); ok && be.Op == token.MUL {
			if w.tainted(be.X) || w.tainted(be.Y) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
