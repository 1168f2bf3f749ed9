package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// A Package is one type-checked analysis unit: a package's files —
// optionally including its in-package test files — under its import
// path, or an external test package under path + "_test".
type Package struct {
	Fset  *token.FileSet
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks repository packages without the go
// tool: module-internal imports resolve by mapping the import path onto
// the module tree, standard-library imports through the compiler source
// importer. One Loader shares a FileSet, a type-checker cache and the
// (expensive, lazily built) standard-library cache across every load.
type Loader struct {
	Root   string // module root directory (contains go.mod)
	Module string // module path from go.mod
	fset   *token.FileSet
	std    types.Importer
	cache  map[string]*types.Package // import units (no test files), by path
}

// NewLoader builds a loader for the module rooted at or above dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Root:   root,
		Module: module,
		fset:   token.NewFileSet(),
		cache:  map[string]*types.Package{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	return l, nil
}

func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Load parses and type-checks the package in dir under import path
// asPath. With tests true it returns one unit per package clause found:
// the package together with its in-package _test.go files, and — when
// the directory has them — the external foo_test package as a second
// unit. asPath controls which package-scope rules apply (SimSide and
// friends), which is how the testdata packages pose as simulation-side
// or host-side code.
func (l *Loader) Load(dir, asPath string, tests bool) ([]*Package, error) {
	names, err := goFilesIn(dir, tests)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, nil
	}
	var base, xtest []*ast.File
	var parseErrs []string
	for _, name := range names {
		file, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			parseErrs = append(parseErrs, err.Error())
			continue
		}
		if !buildIncluded(file) {
			continue
		}
		if strings.HasSuffix(file.Name.Name, "_test") {
			xtest = append(xtest, file)
		} else {
			base = append(base, file)
		}
	}
	if len(parseErrs) > 0 {
		return nil, fmt.Errorf("analysis: parse %s: %s", dir, strings.Join(parseErrs, "; "))
	}
	var units []*Package
	if len(base) > 0 {
		pkg, err := l.check(asPath, base)
		if err != nil {
			return nil, err
		}
		units = append(units, pkg)
	}
	if len(xtest) > 0 {
		pkg, err := l.check(asPath+"_test", xtest)
		if err != nil {
			return nil, err
		}
		units = append(units, pkg)
	}
	return units, nil
}

func goFilesIn(dir string, tests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// buildIncluded reports whether file's //go:build line holds. Release
// tags (go1.N) are those of the toolchain the analyzer was built with, so
// of two files split by Go version exactly one is checked, as with the
// go tool; every other tag counts as set, so tagged files such as the
// equivalence test are checked too.
func buildIncluded(file *ast.File) bool {
	for _, g := range file.Comments {
		if g.Pos() > file.Package {
			break
		}
		for _, c := range g.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			x, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return x.Eval(func(tag string) bool {
				return !strings.HasPrefix(tag, "go1.") || slices.Contains(build.Default.ReleaseTags, tag)
			})
		}
	}
	return true
}

func (l *Loader) check(path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: (*moduleImporter)(l)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", path, err)
	}
	return &Package{Fset: l.fset, Path: path, Files: files, Types: tpkg, Info: info}, nil
}

// importUnit type-checks the non-test files of a module-internal
// package for use as an import, memoized per path.
func (l *Loader) importUnit(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	rel := strings.TrimPrefix(path, l.Module+"/")
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	names, err := goFilesIn(dir, false)
	if err != nil {
		return nil, fmt.Errorf("analysis: import %q: %w", path, err)
	}
	var files []*ast.File
	for _, name := range names {
		file, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if buildIncluded(file) {
			files = append(files, file)
		}
	}
	conf := types.Config{Importer: (*moduleImporter)(l)}
	pkg, err := conf.Check(path, l.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck import %s: %w", path, err)
	}
	l.cache[path] = pkg
	return pkg, nil
}

// moduleImporter routes module-internal import paths to the loader and
// everything else to the standard-library source importer.
type moduleImporter Loader

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(m)
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		return l.importUnit(path)
	}
	return l.std.Import(path)
}

// PackageDirs lists the directories under root (itself included) that
// contain Go files, skipping testdata, vendor and hidden directories and
// nested modules (a subdirectory with its own go.mod is not part of this
// module's ./..., as with the go tool).
// pattern limits the walk: "" or "./..." means everything; "./x/..."
// the subtree at x; a plain directory path just that directory.
func PackageDirs(root, pattern string) ([]string, error) {
	base := root
	recursive := true
	switch {
	case pattern == "" || pattern == "./...":
	case strings.HasSuffix(pattern, "/..."):
		base = filepath.Join(root, filepath.FromSlash(strings.TrimSuffix(pattern, "/...")))
	default:
		base = filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pattern, "./")))
		recursive = false
	}
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if !recursive && path != base {
				return filepath.SkipDir
			}
			if path != base {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
