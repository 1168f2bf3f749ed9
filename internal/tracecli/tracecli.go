// Package tracecli wires the observer and sweep flags of
// upc-experiments: importing it registers -trace, -digest, -metrics,
// -analyze, -parallel and -faults, and Start/Finish bracket the run.
// With -trace=out.json every engine the run creates streams into one
// Chrome trace-event file (open it in Perfetto or chrome://tracing),
// and the run's TraceDigest — an order-sensitive hash of the full event
// stream, identical across same-seed runs — is printed to stdout (the
// equivalence gate compares it); -digest prints the TraceDigest alone,
// without buffering the stream or writing a file. With
// -metrics=out.json the run additionally aggregates the stream into a
// JSON run manifest (communication matrix, utilization timelines,
// virtual-time profile; see internal/metrics and cmd/upc-metrics). With
// -analyze=out.json the run replays the stream through the causality
// engine and writes the wait-state / critical-path analysis plus a
// .folded flamegraph companion (see internal/causality; cmd/upc-metrics
// summarizes and diffs it); when -metrics is also given the analysis
// rides the manifest as its "analysis" section. With -parallel=N the
// experiment sweeps fan independent simulations out over N worker
// threads; results, stdout, the TraceDigest and the manifest are
// byte-identical at any N (see internal/sweep).
package tracecli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/causality"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/trace"
)

var path = flag.String("trace", "",
	"write a Chrome trace-event JSON file of the run and print its TraceDigest")

var digest = flag.Bool("digest", false,
	"print the run's TraceDigest without writing a trace file (flat memory; what CI uses on large sweeps)")

var metricsPath = flag.String("metrics", "",
	"write a JSON run manifest (comm matrix, utilization, profile; see cmd/upc-metrics)")

var parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
	"worker threads for experiment sweeps (1 = sequential; output is identical at any value)")

var analyzePath = flag.String("analyze", "",
	"write the causality analysis (wait states, blame, critical path) as JSON, "+
		"plus a folded-stack flamegraph next to it (see cmd/upc-metrics)")

var faultsPath = flag.String("faults", "",
	"JSON fault schedule to inject into every run (see internal/fault); "+
		"the run then exercises the self-healing comm runtime, deterministically")

var sess *trace.Session
var coll *metrics.Collection
var rec *causality.Recorder

// Start applies the shared flags: sets the sweep worker-pool width and
// begins tracing if -trace, -digest or -metrics was given. Call after
// flag.Parse. Exits immediately if the trace file cannot be created, so
// a bad path is reported before the sweep runs rather than after.
func Start() {
	if err := start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// start is Start without the exit, for tests.
func start() error {
	sweep.SetWorkers(*parallel)
	// The fault schedule is installed before the tracing early-return:
	// -faults works on its own, without any tracing flag.
	if *faultsPath != "" {
		sched, err := fault.Load(*faultsPath)
		if err != nil {
			return err
		}
		fault.SetDefault(sched)
	} else {
		fault.SetDefault(nil)
	}
	if *path == "" && !*digest && *metricsPath == "" && *analyzePath == "" {
		return nil
	}
	sess = trace.StartSession(*path)
	if err := sess.Err(); err != nil {
		sess.Close()
		sess = nil
		return err
	}
	if *metricsPath != "" {
		// The collection opts into link-occupancy events, so it must be
		// attached before the run builds its engines (capabilities are
		// resolved per engine at creation).
		coll = metrics.NewCollection()
		sess.Attach(coll)
	}
	if *analyzePath != "" {
		// Same ordering constraint: the recorder opts into completion-edge
		// events, and the emitters check that capability once per engine.
		rec = causality.NewRecorder()
		sess.Attach(rec)
	}
	return nil
}

// Finish writes the trace file and metrics manifest (if requested) and
// prints the TraceDigest line. Call once after a successful run; a
// no-op when no tracing flag was given.
func Finish() {
	if err := finish(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// finish is Finish without the exit, writing the digest line to w.
func finish(w io.Writer) error {
	if sess == nil {
		return nil
	}
	s, c, r := sess, coll, rec
	sess, coll, rec = nil, nil, nil
	if err := s.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "TraceDigest: %016x (%d events)\n", s.Digest(), s.Events())
	if *path != "" {
		// The notice goes to stderr so stdout stays byte-identical across
		// same-seed runs (the equivalence gate compares it).
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *path)
	}
	var exp *causality.Export
	if r != nil {
		exp = r.Export()
		if err := exp.WriteFile(*analyzePath); err != nil {
			return err
		}
		folded := *analyzePath + ".folded"
		if err := os.WriteFile(folded, []byte(r.FoldedText()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "analysis written to %s (flamegraph: %s)\n", *analyzePath, folded)
	}
	if c != nil {
		m := c.Manifest(toolName(), runParams())
		m.Analysis = exp
		if err := m.WriteFile(*metricsPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics manifest written to %s\n", *metricsPath)
	}
	return nil
}

// toolName reports the invoked binary's base name for the manifest's
// tool field.
func toolName() string {
	if len(os.Args) == 0 || os.Args[0] == "" {
		return "unknown"
	}
	return filepath.Base(os.Args[0])
}

// runParams captures the explicitly-set flags of the invocation for the
// manifest, excluding the harness flags: -trace/-digest/-parallel
// change no simulated outcome and -metrics names the output file, so
// recording them would make equal runs produce unequal manifests (the
// equivalence gate compares manifests across -parallel=1 and -parallel=8).
func runParams() map[string]string {
	p := map[string]string{}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "trace", "digest", "metrics", "parallel", "analyze":
			return
		}
		if strings.HasPrefix(f.Name, "test.") {
			return // the go-test harness's own flags
		}
		p[f.Name] = f.Value.String()
	})
	if len(p) == 0 {
		return nil
	}
	return p
}
