// Command upc-analyze inspects the causality analysis the other
// cmd/upc-* binaries emit under -analyze=out.json (standalone export)
// or -metrics=out.json combined with -analyze (manifest with an
// `analysis` section).
//
//	upc-analyze run.json              summarize: critical path, wait
//	                                  states, per-phase imbalance
//	upc-analyze -blame -top 10 run.json
//	                                  top-N blamed threads across all
//	                                  wait classes, by blamed time
//	upc-analyze a.json b.json         diff two analyses; exits 1 when
//	                                  they drift
//
// Two analyses of the same run — including runs at different -parallel
// worker counts — diff clean; the equivalence gate
// (equivalence_test.go) requires them byte-identical and runs this diff
// to explain a mismatch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/causality"
	"repro/internal/metrics"
)

var top = flag.Int("top", 5,
	"how many threads/segments to show per table")

var blame = flag.Bool("blame", false,
	"with one file: print only the top-N blamed-thread table")

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: upc-analyze [flags] analysis.json [other.json]\n")
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

// load reads either a standalone causality export or a metrics
// manifest carrying an `analysis` section.
func load(path string) *causality.Export {
	if m, err := metrics.Load(path); err == nil && m.Analysis != nil {
		return m.Analysis
	}
	e, err := causality.LoadExport(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(e.Runs) == 0 {
		fmt.Fprintf(os.Stderr, "upc-analyze: %s holds no analysis (run with -analyze=out.json)\n", path)
		os.Exit(1)
	}
	return e
}

func summarize(path string) {
	e := load(path)
	if *blame {
		e.BlameTable(os.Stdout, *top)
		return
	}
	e.Summary(os.Stdout, *top)
}

func diff(pathA, pathB string) {
	a, b := load(pathA), load(pathB)
	ba, err := json.Marshal(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if string(ba) == string(bb) {
		fmt.Printf("analyses match (%d runs, makespan %dns)\n", len(a.Runs), a.TotalMakespanNS)
		return
	}
	fmt.Println("analyses differ:")
	if len(a.Runs) != len(b.Runs) {
		fmt.Printf("  runs                 %d != %d\n", len(a.Runs), len(b.Runs))
	}
	if a.TotalMakespanNS != b.TotalMakespanNS {
		fmt.Printf("  makespan_ns          %d != %d\n", a.TotalMakespanNS, b.TotalMakespanNS)
	}
	segs := func(e *causality.Export) map[string]int64 {
		m := map[string]int64{}
		for _, s := range e.Totals {
			m[s.Category] = s.NS
		}
		return m
	}
	sa, sb := segs(a), segs(b)
	for _, s := range a.Totals {
		if sb[s.Category] != s.NS {
			fmt.Printf("  critical.%-11s %d != %d\n", s.Category, s.NS, sb[s.Category])
		}
	}
	for _, s := range b.Totals {
		if _, ok := sa[s.Category]; !ok {
			fmt.Printf("  critical.%-11s (absent) != %d\n", s.Category, s.NS)
		}
	}
	for i := range a.Runs {
		if i >= len(b.Runs) {
			break
		}
		ra, rb := &a.Runs[i], &b.Runs[i]
		if ra.Waits != rb.Waits || ra.Edges != rb.Edges || ra.MakespanNS != rb.MakespanNS {
			fmt.Printf("  run%d                 waits %d!=%d edges %d!=%d makespan %d!=%d\n",
				i, ra.Waits, rb.Waits, ra.Edges, rb.Edges, ra.MakespanNS, rb.MakespanNS)
		}
	}
	os.Exit(1)
}
