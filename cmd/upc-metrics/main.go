// Command upc-metrics summarizes or diffs the JSON run manifests the
// other cmd/upc-* binaries emit under -metrics=out.json.
//
//	upc-metrics run.json              summarize one manifest
//	upc-metrics -flames out.txt run.json
//	                                  also write the collapsed-stack
//	                                  flamegraph text (virtual time)
//	upc-metrics a.json b.json         diff two manifests; exits 1 when
//	                                  any metric differs beyond -tolerance
//
// The diff compares the flattened metric space (counters, gauges,
// histogram buckets, comm-matrix cells, link utilization, profile
// phases) plus the trace digest. Two manifests of the same run —
// including runs at different -parallel levels — diff clean at
// tolerance 0; the equivalence gate (equivalence_test.go) requires
// them byte-identical and runs this diff to explain a mismatch.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

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

var top = flag.Int("top", 10,
	"how many frames -flame prints")

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: upc-metrics [flags] manifest.json [other.json]\n")
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

func load(path string) *metrics.Manifest {
	m, err := metrics.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return m
}

func summarize(path string) {
	m := load(path)
	if *flame {
		printFlame(m)
		return
	}
	m.Summary(os.Stdout)
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
	phases := append([]metrics.PhaseStat(nil), m.Profile.Phases...)
	sort.Slice(phases, func(i, j int) bool {
		if phases[i].ExclusiveNS != phases[j].ExclusiveNS {
			return phases[i].ExclusiveNS > phases[j].ExclusiveNS
		}
		return phases[i].Name < phases[j].Name
	})
	var total int64
	for _, p := range phases {
		total += p.ExclusiveNS
	}
	if len(phases) > *top {
		phases = phases[:*top]
	}
	fmt.Printf("%-28s %10s %14s %14s %7s\n", "FRAME", "COUNT", "INCL-NS", "EXCL-NS", "EXCL%")
	for _, p := range phases {
		pctv := 0.0
		if total > 0 {
			pctv = 100 * float64(p.ExclusiveNS) / float64(total)
		}
		fmt.Printf("%-28s %10d %14d %14d %6.2f%%\n", p.Name, p.Count, p.InclusiveNS, p.ExclusiveNS, pctv)
	}
}

func diff(pathA, pathB string) {
	a, b := load(pathA), load(pathB)
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
