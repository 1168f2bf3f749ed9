// upcvet is the repository's invariant checker: a multichecker that
// runs the internal/analysis suite — wallclock, maporder, rawgo,
// poolalloc — over the module's packages, test files included, one
// package at a time. An //upcvet: annotation that names no analyzer
// is reported too, whichever analyzers -run selects.
// CI gates every PR on a clean run; see DESIGN.md "Determinism
// invariants" for what each rule protects and internal/analysis for
// the //upcvet: annotation grammar.
//
//	upcvet ./...                 # whole module (the CI invocation)
//	upcvet ./internal/...        # one subtree
//	upcvet -run maporder ./...   # a single analyzer
//	upcvet help                  # describe the analyzers
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

var runOnly = flag.String("run", "", "comma-separated analyzer names to run (default: all)")

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 1 && args[0] == "help" {
		help()
		return
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	analyzers, err := selectAnalyzers(*runOnly)
	if err != nil {
		fmt.Fprintln(os.Stderr, "upcvet:", err)
		os.Exit(2)
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "upcvet:", err)
		os.Exit(2)
	}

	// Resolve every pattern to package directories up front,
	// deduplicated, so overlapping patterns load each package once.
	seen := map[string]bool{}
	var dirs []string
	for _, pattern := range args {
		ds, err := analysis.PackageDirs(loader.Root, pattern)
		if err != nil {
			fmt.Fprintln(os.Stderr, "upcvet:", err)
			os.Exit(2)
		}
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	sort.Strings(dirs)
	var diags []analysis.Diagnostic
	for _, dir := range dirs {
		rel, err := filepath.Rel(loader.Root, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "upcvet:", err)
			os.Exit(2)
		}
		path := loader.Module
		if rel != "." {
			path = loader.Module + "/" + filepath.ToSlash(rel)
		}
		units, err := loader.Load(dir, path, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "upcvet:", err)
			os.Exit(2)
		}
		for _, unit := range units {
			ds, err := analysis.RunAnalyzers(unit, analyzers)
			if err != nil {
				fmt.Fprintln(os.Stderr, "upcvet:", err)
				os.Exit(2)
			}
			diags = append(diags, ds...)
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
		return a.Pos.Column < b.Pos.Column
	})

	for _, d := range diags {
		fmt.Printf("%s:%d:%d: %s: %s\n", relPath(loader.Root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "upcvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func relPath(root, name string) string {
	if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return filepath.ToSlash(name)
}

func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	if names == "" {
		return analysis.All, nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		a, ok := analysis.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: upcvet [-run a,b] [package patterns]\n")
	flag.PrintDefaults()
}

func help() {
	fmt.Println("upcvet enforces the simulation's determinism invariants.")
	fmt.Println()
	for _, a := range analysis.All {
		fmt.Printf("%-10s %s\n", a.Name, a.Doc)
	}
	fmt.Println()
	fmt.Println("Suppress a finding with //upcvet:NAME [-- reason] on the flagged line")
	fmt.Println("or the line above it; see internal/analysis for the grammar. An")
	fmt.Println("annotation naming no analyzer above is itself a finding.")
}
