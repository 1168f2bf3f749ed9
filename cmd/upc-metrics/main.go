// Command upc-metrics summarizes or diffs the JSON run manifests
// upc-experiments emits under -metrics=out.json, and the causality
// analyses it emits under -analyze=out.json (a standalone export, or
// the `analysis` section of a manifest).
//
//	upc-metrics run.json              summarize one manifest, and its
//	                                  analysis when it carries one:
//	                                  critical path, wait states,
//	                                  per-phase imbalance
//	upc-metrics -flames out.txt run.json
//	                                  also write the collapsed-stack
//	                                  flamegraph text (virtual time)
//	upc-metrics -blame -top 10 run.json
//	                                  top-N blamed threads across all
//	                                  wait classes, by blamed time
//	upc-metrics a.json b.json         diff two manifests or analyses;
//	                                  exits 1 when any metric differs
//	                                  beyond -tolerance
//
// The diff compares the flattened metric space (counters, gauges,
// histogram buckets, comm-matrix cells, link utilization, profile
// phases, analysis totals and wait classes) plus the trace digest and
// the whole analysis section, which must match exactly. Two manifests
// or analyses of the same run — including runs at different -parallel
// levels — diff clean at tolerance 0; the equivalence gate
// (equivalence_test.go) requires them byte-identical and runs this diff
// to explain a mismatch.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/causality"
	"repro/internal/metrics"
)

var tolerance = flag.Float64("tolerance", 0,
	"relative per-metric difference allowed before a diff counts (0 = exact)")

var flames = flag.String("flames", "",
	"with one manifest: write its folded stacks to this file (flamegraph collapsed format)")

var maxDeltas = flag.Int("max-deltas", 40,
	"print at most this many differing metrics")

var flame = flag.Bool("flame", false,
	"with one manifest: print the hottest profile frames by exclusive virtual time")

var blame = flag.Bool("blame", false,
	"with one file: print only the top-N blamed-thread table of its analysis")

var top = flag.Int("top", 10,
	"how many rows -flame and -blame print, and threads per table of an analysis summary")

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: upc-metrics [flags] run.json [other.json]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	switch flag.NArg() {
	case 1:
		summarize(flag.Arg(0))
	case 2:
		diff(flag.Arg(0), flag.Arg(1))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// load reads a run manifest, or a standalone causality export, which it
// wraps as a manifest holding only that analysis and reports as bare.
func load(path string) (*metrics.Manifest, bool) {
	m, err := metrics.Load(path)
	if err == nil {
		return m, false
	}
	if e, errE := causality.LoadExport(path); errE == nil {
		return &metrics.Manifest{Analysis: e}, true
	}
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
	return nil, false
}

func summarize(path string) {
	m, bare := load(path)
	switch {
	case *flame:
		printFlame(m)
		return
	case *blame:
		if m.Analysis == nil {
			fmt.Fprintf(os.Stderr, "upc-metrics: %s holds no analysis (run with -analyze=out.json)\n", path)
			os.Exit(1)
		}
		m.Analysis.BlameTable(os.Stdout, *top)
		return
	}
	if !bare {
		m.Summary(os.Stdout)
	}
	if m.Analysis != nil {
		m.Analysis.Summary(os.Stdout, *top)
	}
	if *flames == "" {
		return
	}
	text := m.Profile.FoldedText()
	if text == "" {
		fmt.Fprintln(os.Stderr, "upc-metrics: manifest has no profile; nothing to write")
		os.Exit(1)
	}
	if err := os.WriteFile(*flames, []byte(text), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "folded stacks written to %s\n", *flames)
}

// printFlame renders the -top hottest profile frames by exclusive
// virtual time — the text view of the flamegraph, for terminals.
func printFlame(m *metrics.Manifest) {
	if m.Profile == nil || len(m.Profile.Phases) == 0 {
		fmt.Fprintln(os.Stderr, "upc-metrics: manifest has no profile section")
		os.Exit(1)
	}
	var total int64
	for _, p := range m.Profile.Phases {
		total += p.ExclusiveNS
	}
	fmt.Printf("%-28s %10s %14s %14s %7s\n", "FRAME", "COUNT", "INCL-NS", "EXCL-NS", "EXCL%")
	for _, p := range metrics.TopPhases(m.Profile.Phases, *top) {
		pctv := 0.0
		if total > 0 {
			pctv = 100 * float64(p.ExclusiveNS) / float64(total)
		}
		fmt.Printf("%-28s %10d %14d %14d %6.2f%%\n", p.Name, p.Count, p.InclusiveNS, p.ExclusiveNS, pctv)
	}
}

func diff(pathA, pathB string) {
	a, _ := load(pathA)
	b, _ := load(pathB)
	ds := metrics.Diff(a, b, *tolerance)
	if len(ds) == 0 {
		fmt.Printf("manifests match (%d metrics, tolerance %g)\n", len(a.Flatten()), *tolerance)
		return
	}
	fmt.Printf("%d metrics differ (tolerance %g)\n", len(ds), *tolerance)
	shown := ds
	if len(shown) > *maxDeltas {
		shown = shown[:*maxDeltas]
	}
	for _, d := range shown {
		switch {
		case d.Name == "digest":
			fmt.Printf("  %-40s %s != %s\n", d.Name, a.Digest, b.Digest)
		case d.Name == "analysis":
			fmt.Printf("  %-40s sections differ\n", d.Name)
		case !d.InA:
			fmt.Printf("  %-40s (absent) != %g\n", d.Name, d.B)
		case !d.InB:
			fmt.Printf("  %-40s %g != (absent)\n", d.Name, d.A)
		default:
			fmt.Printf("  %-40s %g != %g (rel %.3g)\n", d.Name, d.A, d.B, d.Rel)
		}
	}
	if len(ds) > len(shown) {
		fmt.Printf("  ... and %d more\n", len(ds)-len(shown))
	}
	os.Exit(1)
}
