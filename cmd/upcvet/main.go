// upcvet is the repository's invariant checker: a multichecker that
// runs the internal/analysis suite — wallclock, maporder, rawgo,
// affinity, spanpair, poolalloc, collalign, sharedrace — over the
// module's packages, test files included. The whole requested tree is
// loaded into one analysis.Program first, so the interprocedural
// analyzers (collalign, sharedrace) see cross-package call edges and
// the type-checker caches are shared across every unit.
// CI gates every PR on a clean run; see DESIGN.md "Determinism
// invariants" and §13 "Interprocedural concurrency checking" for what
// each rule protects and internal/analysis for the //upcvet:
// annotation grammar.
//
//	upcvet ./...                 # whole module (the CI invocation)
//	upcvet ./internal/...        # one subtree
//	upcvet -run maporder ./...   # a single analyzer
//	upcvet -format=sarif ./...   # SARIF 2.1.0 on stdout (code scanning)
//	upcvet -stats ./...          # per-analyzer wall-clock to stderr
//	upcvet help                  # describe the analyzers
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
)

var (
	runOnly = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	format  = flag.String("format", "text", "output format: text or sarif")
	stats   = flag.Bool("stats", false, "print load and per-analyzer wall-clock timings to stderr")
)

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
	switch *format {
	case "text", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "upcvet: unknown -format %q (want text or sarif)\n", *format)
		os.Exit(2)
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
	// deduplicated, so overlapping patterns load each package once and
	// the whole tree lands in a single Program: call-graph edges and
	// analyzer summaries then span all requested packages.
	loadStart := time.Now()
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
	var units []*analysis.Package
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
		us, err := loader.Load(dir, path, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "upcvet:", err)
			os.Exit(2)
		}
		units = append(units, us...)
	}
	prog := analysis.NewProgram(units)
	prog.Stats["load"] = time.Since(loadStart)

	var diags []analysis.Diagnostic
	for _, unit := range units {
		ds, err := prog.RunUnit(unit, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "upcvet:", err)
			os.Exit(2)
		}
		diags = append(diags, ds...)
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

	if *stats {
		printStats(prog, analyzers)
	}

	if *format == "sarif" {
		if err := printSARIF(loader.Root, analyzers, diags); err != nil {
			fmt.Fprintln(os.Stderr, "upcvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s: %s\n", relPath(loader.Root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
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

func printStats(prog *analysis.Program, analyzers []*analysis.Analyzer) {
	fmt.Fprintf(os.Stderr, "upcvet: %-12s %10s (%d units)\n", "load", prog.Stats["load"].Round(time.Millisecond), len(prog.Units))
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "upcvet: %-12s %10s\n", a.Name, prog.Stats[a.Name].Round(time.Millisecond))
	}
}

// printSARIF emits a minimal SARIF 2.1.0 log: one run, one rule per
// selected analyzer, one result per finding with a repo-relative
// forward-slash URI. GitHub code scanning accepts this shape directly.
func printSARIF(root string, analyzers []*analysis.Analyzer, diags []analysis.Diagnostic) error {
	type sarifRule struct {
		ID               string            `json:"id"`
		ShortDescription map[string]string `json:"shortDescription"`
	}
	type sarifRegion struct {
		StartLine   int `json:"startLine"`
		StartColumn int `json:"startColumn,omitempty"`
	}
	type sarifLocation struct {
		PhysicalLocation struct {
			ArtifactLocation struct {
				URI string `json:"uri"`
			} `json:"artifactLocation"`
			Region sarifRegion `json:"region"`
		} `json:"physicalLocation"`
	}
	type sarifResult struct {
		RuleID    string            `json:"ruleId"`
		Level     string            `json:"level"`
		Message   map[string]string `json:"message"`
		Locations []sarifLocation   `json:"locations"`
	}
	type sarifLog struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name           string      `json:"name"`
					InformationURI string      `json:"informationUri"`
					Rules          []sarifRule `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []sarifResult `json:"results"`
		} `json:"runs"`
	}

	var log sarifLog
	log.Schema = "https://json.schemastore.org/sarif-2.1.0.json"
	log.Version = "2.1.0"
	log.Runs = make([]struct {
		Tool struct {
			Driver struct {
				Name           string      `json:"name"`
				InformationURI string      `json:"informationUri"`
				Rules          []sarifRule `json:"rules"`
			} `json:"driver"`
		} `json:"tool"`
		Results []sarifResult `json:"results"`
	}, 1)
	run := &log.Runs[0]
	run.Tool.Driver.Name = "upcvet"
	run.Tool.Driver.InformationURI = "https://example.invalid/repro/cmd/upcvet"
	for _, a := range analyzers {
		run.Tool.Driver.Rules = append(run.Tool.Driver.Rules, sarifRule{
			ID:               a.Name,
			ShortDescription: map[string]string{"text": a.Doc},
		})
	}
	run.Results = make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		var loc sarifLocation
		loc.PhysicalLocation.ArtifactLocation.URI = relPath(root, d.Pos.Filename)
		loc.PhysicalLocation.Region = sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column}
		run.Results = append(run.Results, sarifResult{
			RuleID:    d.Analyzer,
			Level:     "warning",
			Message:   map[string]string{"text": d.Message},
			Locations: []sarifLocation{loc},
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(&log)
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
	fmt.Fprintf(os.Stderr, "usage: upcvet [-run a,b] [-format text|sarif] [-stats] [package patterns]\n")
	flag.PrintDefaults()
}

func help() {
	fmt.Println("upcvet enforces the simulation's determinism and UPC-runtime invariants.")
	fmt.Println()
	for _, a := range analysis.All {
		fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		if len(a.Aliases) > 0 {
			fmt.Printf("%-10s (annotation alias: //upcvet:%s)\n", "", strings.Join(a.Aliases, ", //upcvet:"))
		}
	}
	fmt.Println()
	fmt.Println("Suppress a finding with //upcvet:NAME [-- reason] on the flagged line")
	fmt.Println("or the line above it; see internal/analysis for the grammar.")
}
