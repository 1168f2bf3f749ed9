// upc-bench records the performance of the simulation substrate.
//
// It drives the engine microbenchmarks (internal/simbench) through
// testing.Benchmark plus one end-to-end figure benchmark (the Table 3.1
// twisted-STREAM sweep) and writes BENCH_sim.json: ns/op, allocs/op and
// bytes/op per microbenchmark and the figure's wall time and headline
// metrics.
//
//	upc-bench                  # measure and rewrite BENCH_sim.json
//	upc-bench -check           # measure and fail on >20% ns/op regression
//	                           # (or any allocs/op growth) vs the committed file
//
// Each microbenchmark takes the best of -runs runs: single samples on a
// busy machine vary by ~15%, and the minimum is the stable estimate of
// the code's cost. CI runs -check with a widened -tolerance to absorb
// runner-to-runner hardware variance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/apps/stream"
	"repro/internal/perf"
	"repro/internal/simbench"
)

type record struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type figure struct {
	Name        string             `json:"name"`
	WallSeconds float64            `json:"wall_seconds"`
	Metrics     map[string]float64 `json:"metrics"`
}

type benchFile struct {
	Note       string            `json:"note"`
	Benchmarks map[string]record `json:"benchmarks"`
	Figure     figure            `json:"figure"`
}

var (
	out       = flag.String("out", "BENCH_sim.json", "result file to write (ignored with -check)")
	check     = flag.Bool("check", false, "compare a fresh measurement against -baseline and fail on regression")
	baseline  = flag.String("baseline", "BENCH_sim.json", "committed baseline file for -check")
	runs      = flag.Int("runs", 3, "runs per microbenchmark; the minimum ns/op is recorded")
	tolerance = flag.Float64("tolerance", 0.20, "allowed fractional ns/op regression in -check mode")
)

func measure() map[string]record {
	res := make(map[string]record, len(simbench.All))
	for _, bm := range simbench.All {
		// The benchmarks are logically sequential — exactly one
		// simulated process runs at a time — so measure them on one P:
		// at the default GOMAXPROCS the Go scheduler migrates the
		// handoff chain across cores and the many-goroutine benchmarks
		// swing 30-50% run to run; pinned, they repeat within a few
		// percent.
		prev := runtime.GOMAXPROCS(1)
		best := record{NsPerOp: -1}
		trials := make([]float64, 0, *runs)
		for i := 0; i < *runs; i++ {
			// Settle the heap so one benchmark's garbage is not collected
			// on another's clock — the allocating benchmarks otherwise
			// swing 30-50% run to run.
			runtime.GC()
			r := testing.Benchmark(bm.Fn)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			trials = append(trials, ns)
			if best.NsPerOp < 0 || ns < best.NsPerOp {
				best = record{NsPerOp: ns, AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
			}
		}
		runtime.GOMAXPROCS(prev)
		res[bm.Name] = best
		// The minimum stays the recorded estimate; the trial percentiles
		// show how noisy this machine made the measurement.
		p10, med, p90 := perf.Percentiles(trials)
		fmt.Printf("%-20s %12.1f ns/op %8d B/op %6d allocs/op  trials p10/med/p90 %.0f/%.0f/%.0f\n",
			bm.Name, best.NsPerOp, best.BytesPerOp, best.AllocsPerOp, p10, med, p90)
	}
	return res
}

func measureFigure() figure {
	// Settle the microbenchmarks' garbage so its collection is not
	// billed to the figure's wall clock.
	runtime.GC()
	start := time.Now() //upcvet:wallclock -- real host-side benchmarking; this is the one place wall time is the point
	rs, err := stream.Table31(1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wall := time.Since(start).Seconds() //upcvet:wallclock -- real host-side benchmarking
	f := figure{
		Name:        "Table31_TwistedStream",
		WallSeconds: wall,
		Metrics: map[string]float64{
			"baseline_GBps": rs[0].GBps,
			"cast_GBps":     rs[2].GBps,
			"cast_ratio":    rs[2].GBps / rs[0].GBps,
		},
	}
	fmt.Printf("%-20s %12.2f s wall  (cast %.1f GB/s, %.1fx over baseline)\n",
		f.Name, wall, rs[2].GBps, f.Metrics["cast_ratio"])
	return f
}

func sortedNames(m map[string]record) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// zeroAllocBenches are the pooled one-sided hot-path benchmarks (the
// fabric's and the upc runtime's split-phase pair) and the observer
// pipeline's per-event path: the zero-allocation contract covers them. -check holds them to exactly zero on
// both sides of the comparison — a regenerated baseline that records
// any allocation for them is itself a failure, so the gate cannot be
// weakened by rerunning upc-bench after a regression.
var zeroAllocBenches = []string{"FabricPut", "FabricFlows4096", "SharedLink32Flows", "ObserverEmit", "UPCPutGet"}

func runCheck(fresh map[string]record) int {
	data, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *baseline, err)
		return 1
	}
	zeroFail := 0
	for _, name := range zeroAllocBenches {
		if b, ok := base.Benchmarks[name]; ok && b.AllocsPerOp != 0 {
			fmt.Printf("FAIL %-20s baseline records %d allocs/op; the pooled hot path is zero-alloc by contract\n",
				name, b.AllocsPerOp)
			zeroFail++
		}
		if f, ok := fresh[name]; ok && f.AllocsPerOp != 0 {
			fmt.Printf("FAIL %-20s measured %d allocs/op; the pooled hot path is zero-alloc by contract\n",
				name, f.AllocsPerOp)
			zeroFail++
		}
	}
	// The benchmarks are deterministic, so allocs/op may not grow at all.
	fail := zeroFail
	for _, name := range sortedNames(base.Benchmarks) {
		b := base.Benchmarks[name]
		f, ok := fresh[name]
		if !ok {
			fmt.Printf("FAIL %-20s missing from this build\n", name)
			fail++
			continue
		}
		ratio := f.NsPerOp / b.NsPerOp
		switch {
		case ratio > 1+*tolerance:
			fmt.Printf("FAIL %-20s %.1f ns/op vs baseline %.1f (%.0f%% slower, limit %.0f%%)\n",
				name, f.NsPerOp, b.NsPerOp, (ratio-1)*100, *tolerance*100)
			fail++
		case f.AllocsPerOp > b.AllocsPerOp:
			fmt.Printf("FAIL %-20s %d allocs/op vs baseline limit %d\n",
				name, f.AllocsPerOp, b.AllocsPerOp)
			fail++
		default:
			fmt.Printf("ok   %-20s %.1f ns/op vs baseline %.1f (%+.0f%%), %d allocs/op\n",
				name, f.NsPerOp, b.NsPerOp, (ratio-1)*100, f.AllocsPerOp)
		}
	}
	if fail > 0 {
		fmt.Printf("%d benchmark(s) regressed\n", fail)
		return 1
	}
	fmt.Println("all benchmarks within tolerance")
	return 0
}

func main() {
	flag.Parse()
	fresh := measure()
	if *check {
		os.Exit(runCheck(fresh))
	}
	bf := benchFile{
		Note: "engine microbenchmark baseline; regenerate with `go run ./cmd/upc-bench`, " +
			"CI gates on `go run ./cmd/upc-bench -check` (see .github/workflows/ci.yml)",
		Benchmarks: fresh,
		Figure:     measureFigure(),
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
