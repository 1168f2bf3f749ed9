// Command upc-experiments regenerates the tables and figures of the
// thesis's evaluation — the full per-experiment index of DESIGN.md —
// printing model values alongside the paper's where the paper states
// absolute numbers. With no -only it renders every experiment; -only
// takes a comma-separated list of index names and renders those, in
// index order, under one TraceDigest and one manifest. Run totals
// (simulations, events, virtual time, bytes moved per path class) come
// from -metrics=m.json followed by `upc-metrics m.json`; with no tracing
// flag the run installs no tracer at all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/tracecli"
)

func main() {
	quick := flag.Bool("quick", true,
		"smaller trees and no SMT sweep points (pass -quick=false for the full paper-scale run)")
	only := flag.String("only", "",
		"render only these experiments, a comma-separated list of index names "+
			"(e.g. \"Table 3.1,Figure 3.1b\"), instead of the full sweep")
	flag.Parse()
	var names []string
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			names = append(names, strings.TrimSpace(name))
		}
	}
	// Check the names before tracing starts, so a mistyped one leaves no
	// empty trace file behind.
	if err := experiments.Check(names); err != nil {
		fail(err)
	}
	tracecli.Start()
	if err := experiments.Run(os.Stdout, names, *quick); err != nil {
		fail(err)
	}
	tracecli.Finish()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "upc-experiments:", err)
	os.Exit(1)
}
