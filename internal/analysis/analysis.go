// Package analysis is upcvet's static-analysis suite: the rules that
// keep the simulation deterministic, enforced by machine instead of by
// code review. The repository's whole reproduction method rests on
// invariants no compiler checks and no output comparison sees until a
// race or a map order happens to bite: virtual time only,
// deterministic event order, all concurrency through sim.Proc or the
// sweep pool, and an allocation-free one-sided comm path. Each
// analyzer encodes one of them (see wallclock.go, maporder.go,
// rawgo.go, poolalloc.go). The UPC-semantic bugs (misaligned
// collectives, same-phase races, unguarded Cast pointers, unclosed
// spans) are left to the simulator itself, which deadlocks, panics or
// moves a pinned output on each of them.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built on the standard library's
// go/ast and go/types alone, so the linter needs no module downloads:
// package loading resolves repository-internal imports by walking the
// module tree and standard-library imports through the source importer
// (see load.go).
//
// # Annotation grammar
//
// A finding is suppressed by an annotation comment on the flagged line
// or on the line directly above it:
//
//	//upcvet:NAME[,NAME...] [-- reason]
//
// where NAME is an analyzer name (wallclock, maporder, rawgo,
// poolalloc). A NAME that is not in All is itself a finding, so an
// annotation cannot outlive its rule or hide a typo. The free-text
// reason after "--" is for the human reader; upcvet ignores it but the
// reviewer should not — an annotation without a justification is a
// smell. Examples:
//
//	start := time.Now() //upcvet:wallclock -- real benchmarking, not simulation
//	//upcvet:maporder -- accumulates into a map; iteration order is invisible
//	for k, v := range m { ... }
//
// Prefer a real fix (sorted keys, sim.Proc, a pooled record) and keep
// annotations for the cases where the flagged construct is the point.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and annotations.
	Name string
	// Doc is the one-paragraph description `upcvet help` prints.
	Doc string
	// Run reports the analyzer's findings on one package via pass.Report.
	Run func(pass *Pass) error
}

// All lists every analyzer in the suite, in reporting order.
var All = []*Analyzer{Wallclock, Maporder, Rawgo, Poolalloc}

// ByName resolves an analyzer by name.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range All {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// Path is the package's import path ("repro/internal/sim"). Test
	// units of a package analyze under the same path; external test
	// packages analyze under path + "_test".
	Path string
	Pkg  *types.Package
	Info *types.Info

	diags *[]Diagnostic
	notes map[string]map[int][]string // file -> line -> annotation names
	spans map[string][]lineSpan       // file -> multi-line simple-statement spans
}

// A lineSpan is the line range of one multi-line simple statement; an
// annotation on (or above) its first line suppresses findings anywhere
// inside it.
type lineSpan struct{ start, end int }

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Reportf records a finding at pos unless an annotation suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressed reports whether an //upcvet: annotation naming this
// analyzer sits on the finding's line, the line above it,
// or — when the finding falls inside a multi-line simple statement (a
// wrapped call, a function-literal argument) — on the statement's first
// line or the line above that. Without the span rule an annotation on a
// multi-line statement only reached the first line's diagnostics.
func (p *Pass) suppressed(pos token.Position) bool {
	lines, ok := p.notes[pos.Filename]
	if !ok {
		return false
	}
	candidates := []int{pos.Line, pos.Line - 1}
	for _, s := range p.spans[pos.Filename] {
		if s.start < pos.Line && pos.Line <= s.end {
			candidates = append(candidates, s.start, s.start-1)
		}
	}
	for _, line := range candidates {
		for _, name := range lines[line] {
			if name == p.Analyzer.Name {
				return true
			}
		}
	}
	return false
}

// stmtSpans indexes the multi-line simple statements of each file.
// Control-flow statements (if/for/switch/blocks) are deliberately
// excluded: an annotation above a loop should not blanket its whole
// body, only a single wrapped statement.
func stmtSpans(fset *token.FileSet, files []*ast.File) map[string][]lineSpan {
	spans := map[string][]lineSpan{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.DeferStmt, *ast.GoStmt, *ast.DeclStmt:
				start := fset.Position(n.Pos())
				end := fset.Position(n.End())
				if end.Line > start.Line {
					spans[start.Filename] = append(spans[start.Filename], lineSpan{start.Line, end.Line})
				}
			}
			return true
		})
	}
	return spans
}

const annotationPrefix = "//upcvet:"

// collectAnnotations indexes every //upcvet: comment by file and line,
// and reports each annotation name that is not an analyzer in All.
func collectAnnotations(fset *token.FileSet, files []*ast.File) (map[string]map[int][]string, []Diagnostic) {
	notes := map[string]map[int][]string{}
	var unknown []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseAnnotation(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, name := range names {
					if _, ok := ByName(name); !ok {
						unknown = append(unknown, Diagnostic{
							Pos:      pos,
							Analyzer: "upcvet",
							Message:  fmt.Sprintf("annotation names unknown analyzer %q (see upcvet help)", name),
						})
					}
				}
				byLine := notes[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					notes[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], names...)
			}
		}
	}
	return notes, unknown
}

// parseAnnotation extracts the names of one "//upcvet:a,b -- reason"
// comment.
func parseAnnotation(text string) ([]string, bool) {
	if !strings.HasPrefix(text, annotationPrefix) {
		return nil, false
	}
	rest := strings.TrimPrefix(text, annotationPrefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	var names []string
	for _, n := range strings.Split(rest, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, len(names) > 0
}

// RunAnalyzers applies the given analyzers to one loaded package and
// returns the findings sorted by position. Annotations are checked
// against All whichever analyzers run.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	notes, diags := collectAnnotations(pkg.Fset, pkg.Files)
	spans := stmtSpans(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Path:     pkg.Path,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
			notes:    notes,
			spans:    spans,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// ---- Shared package-scope helpers ----

// simSidePackages are the repository packages that execute inside (or
// build) simulations: code where wall-clock time, ambient randomness and
// environment reads would silently break virtual-time determinism.
// cmd/, examples/, internal/simbench, internal/tracecli and the analysis
// suite itself are host-side and exempt.
var simSidePackages = []string{
	"repro/internal/sim",
	"repro/internal/fabric",
	"repro/internal/fault",
	"repro/internal/upc",
	"repro/internal/subthread",
	"repro/internal/mpi",
	"repro/internal/group",
	"repro/internal/apps",
	"repro/internal/experiments",
	"repro/internal/trace",
	"repro/internal/metrics",
	"repro/internal/causality",
	"repro/internal/fft",
	"repro/internal/topo",
	"repro/internal/perf",
	"repro/internal/report",
	"repro/internal/sweep",
}

// SimSide reports whether the package path is simulation-side.
func SimSide(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, p := range simSidePackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// pkgNameOf resolves a selector base like the `time` of time.Now to the
// path of the package it names, or "" when it is not a package name
// (e.g. a local variable that shadows the import).
func pkgNameOf(info *types.Info, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// calleeFunc resolves a call's callee to its types.Func (package
// function or method), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			fn, _ := info.Uses[id].(*types.Func)
			return fn
		}
	}
	return nil
}

// funcBodies yields every function body in the package — declarations
// and, via inspection inside them, literals — paired with the name used
// in diagnostics.
func funcBodies(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
