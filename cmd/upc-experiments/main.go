// Command upc-experiments regenerates every table and figure of the
// thesis's evaluation in one run — the full per-experiment index of
// DESIGN.md — printing model values alongside the paper's where the
// paper states absolute numbers. Run totals (simulations, events,
// virtual time, bytes moved per path class) come from -metrics=m.json
// followed by `upc-metrics m.json`; with no tracing flag the run installs
// no tracer at all.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/tracecli"
)

func main() {
	quick := flag.Bool("quick", true,
		"smaller trees and no SMT sweep points (pass -quick=false for the full paper-scale run)")
	only := flag.String("only", "",
		"render a single experiment by index name (e.g. \"Figure 3.1b\") instead of the full sweep")
	flag.Parse()
	tracecli.Start()
	run := func() error {
		if *only != "" {
			return experiments.Only(os.Stdout, *only, *quick)
		}
		return experiments.All(os.Stdout, *quick)
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "upc-experiments:", err)
		os.Exit(1)
	}
	tracecli.Finish()
}
