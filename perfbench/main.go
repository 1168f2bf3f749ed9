// Command perfbench measures the host cost of regenerating the paper's
// results: per workload, the wall and CPU seconds its simulations take,
// the process's peak RSS, its set-up time and its event rate, with every
// simulation's output checked against a golden oracle. With -trace 1 it
// instead makes one traced run and reports where the cost sits, layer by
// layer. README.md lists the metrics and workloads.
//
//	perfbench -workload uts-steal -seed 1 -seconds 20 -trace 0
//	perfbench -record -golden perfbench/golden.json   # regenerate the oracle
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is 1 when any simulation failed the oracle, 2 on a usage
// or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/perf"
)

// probeEnv, when set to "<workload>:<seed>", makes the process a set-up
// probe: it does the workload's set-up, prints the wall-clock time at
// which it would make the first simulation call, and exits.
const probeEnv = "PERFBENCH_SETUP_PROBE"

// setupProbes is how many probe processes one run starts; setup_s is
// their median.
const setupProbes = 51

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	golden   string
	dir      string // where manifests, analyses and profiles are written
	scale    scale
}

func main() {
	if v := os.Getenv(probeEnv); v != "" {
		os.Exit(probe(v))
	}
	opt := options{scale: fullScale}
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed")
	flag.Float64Var(&opt.seconds, "seconds", 20, "seconds to measure for")
	traceFlag := flag.Int("trace", 0, "1 = one traced run reporting per-layer metrics")
	flag.StringVar(&opt.golden, "golden", "perfbench/golden.json", "oracle file")
	flag.StringVar(&opt.dir, "out", ".bench_build/run", "directory for manifests, analyses and profiles")
	record := flag.Bool("record", false, "regenerate the oracle file instead of measuring")
	flag.Parse()
	opt.traced = *traceFlag == 1
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *record {
		if err := recordGolden(opt.golden, opt.scale, opt.dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	stealStart := stealSeconds()
	res, err := measure(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	h, _ := json.Marshal(readHost(stealStart))
	fmt.Printf("host %s\n", h)
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Printf("%-24s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// measure runs one end-to-end measurement, or with opt.traced the
// per-layer one.
func measure(opt options) (result, error) {
	w, err := buildWorkload(opt.workload, opt.scale, opt.seed)
	if err != nil {
		return result{}, err
	}
	g, err := loadGolden(opt.golden)
	if err != nil {
		return result{}, err
	}
	runtime.GOMAXPROCS(w.procs)
	if opt.traced {
		return measureLayers(w, opt, g)
	}
	setup, err := setupSeconds(opt)
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metric{}}
	var rounds []round
	start := time.Now()
	for len(rounds) == 0 || time.Since(start).Seconds() < opt.seconds {
		r, err := runRound(w, opt.seed, opt.dir)
		if err != nil {
			return result{}, err
		}
		res.Attempted += len(w.sims)
		res.Failed += g.check(w, opt.seed, r)
		rounds = append(rounds, r)
	}
	wall := sumOfMedians(rounds, func(r round) []float64 { return r.wall })
	events := rounds[0].events
	if !w.observed {
		events = g.Events[eventsKey(w)]
	}
	if events == 0 {
		fmt.Fprintf(os.Stderr, "oracle: no event count for %q\n", eventsKey(w))
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	fmt.Printf("raw wall_s %.6g cpu_s %.6g (unscaled medians)\n",
		sumOfMedians(rounds, func(r round) []float64 { return r.rawWall }),
		sumOfMedians(rounds, func(r round) []float64 { return r.rawCPU }))
	res.Metrics["wall_s"] = metric{wall, "s"}
	res.Metrics["cpu_s"] = metric{sumOfMedians(rounds, func(r round) []float64 { return r.cpu }), "s"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	res.Metrics["setup_s"] = metric{setup, "s"}
	res.Metrics["events_per_s"] = metric{float64(events) / wall, "1/s"}
	return res, nil
}

// sumOfMedians takes, position by position, the median across rounds and
// sums them: for a serial workload the sum over its simulations of each
// one's median time, so one slow round of one simulation moves nothing.
func sumOfMedians(rounds []round, get func(round) []float64) float64 {
	total := 0.0
	for i := range get(rounds[0]) {
		xs := make([]float64, len(rounds))
		for k, r := range rounds {
			xs[k] = get(r)[i]
		}
		total += perf.Median(xs)
	}
	return total
}

// measureLayers makes one untraced and one traced pass and reports the
// per-layer metrics.
func measureLayers(w workload, opt options, g *golden) (result, error) {
	res := result{Metrics: map[string]metric{}}
	put := func(m map[string]float64) {
		for k, v := range m {
			res.Metrics[k] = metric{v, unitOf(k)}
		}
	}
	before := runtimeSample()
	base, err := runRound(w, opt.seed, opt.dir)
	if err != nil {
		return result{}, err
	}
	put(runtimeDelta(before))
	res.Failed += g.check(w, opt.seed, base)

	lr, err := tracedRun(w, opt.seed, opt.dir)
	if err != nil {
		return result{}, err
	}
	res.Failed += g.check(w, opt.seed, lr.r)
	res.Attempted = 2 * len(w.sims)
	// Traced and untraced passes must agree; the serial traced stream,
	// less the link events its metrics collection opts into, must be the
	// plain-sink stream the oracle counted.
	for i, s := range w.sims {
		if base.errs[i] == nil && lr.r.errs[i] == nil && base.outs[i].canon != lr.r.outs[i].canon {
			fmt.Fprintf(os.Stderr, "oracle: %s: traced and untraced outcomes differ\n", s.key)
			res.Failed++
		}
	}
	if plain := lr.p.stream.events.Load() - lr.p.stream.links; !w.observed && plain != g.Events[eventsKey(w)] {
		fmt.Fprintf(os.Stderr, "oracle: %s: traced stream has %d plain events, golden %d\n",
			w.name, plain, g.Events[eventsKey(w)])
		res.Failed++
	}
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0

	self, err := selfTimes(lr.profile)
	if err != nil {
		return result{}, err
	}
	put(self)
	ops := opCosts()
	put(ops)
	put(counts(lr))
	var nodes int64
	for _, o := range base.outs {
		nodes += o.nodes
	}
	put(ledger(ops, lr, nodes, sum(base.rawCPU)))
	put(map[string]float64{
		"trace.overhead_s":   lr.wall - sum(base.rawWall),
		"trace.emit_s":       lr.p.busy("trace"),
		"metrics.emit_s":     lr.p.busy("metrics"),
		"causality.emit_s":   lr.p.busy("causality"),
		"metrics.manifest_s": lr.p.manifest.Seconds(),
		"causality.export_s": lr.p.export.Seconds(),
		"sweep.replay_s":     lr.p.replay.Seconds(),
	})
	for _, k := range sortedKeys(res.Metrics) {
		if res.Metrics[k].Value == 0 {
			fmt.Fprintf(os.Stderr, "note: %s is 0: %s does not exercise that layer\n", k, w.name)
		}
	}
	return res, nil
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "fabric.bytes":
		return "B"
	case name == "uts.steal_yield" || name == "uts.local_share":
		return "ratio"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	}
	return "count"
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// setupSeconds starts setupProbes probe processes one after another and
// reports the median time from starting one to its first simulation
// call.
func setupSeconds(opt options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	xs := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s:%d", probeEnv, opt.workload, opt.seed))
		t0 := time.Now()
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		xs = append(xs, float64(ns-t0.UnixNano())/1e9)
	}
	return perf.Median(xs), nil
}

// probe is the set-up probe process: runtime and package initialization
// have run; it builds the workload, attaches its sinks, and prints the
// time of what would be the first simulation call.
func probe(spec string) int {
	name, seedStr, _ := strings.Cut(spec, ":")
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	w, err := buildWorkload(name, fullScale, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	runtime.GOMAXPROCS(w.procs)
	if w.observed {
		attach(true, nil)
	}
	fmt.Println(time.Now().UnixNano())
	return 0
}
