package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	rmetrics "repro/internal/metrics"
)

// layerOf maps a profiled function to the self-time metric of the layer
// that owns it, by import path. Other standard-library packages and the
// driver itself fall through to unattributed_s.
var layerOf = []struct{ prefix, metric string }{
	{"repro/internal/sim.", "sim.self_s"},
	{"repro/internal/fabric.", "fabric.self_s"},
	{"repro/internal/upc.", "upc.self_s"},
	{"repro/internal/apps/uts.", "uts.self_s"},
	{"crypto/sha1.", "uts.sha1_s"}, // UTS's real kernel: the tree is SHA-1 chains
	{"repro/internal/apps/ft.", "ft.self_s"},
	{"repro/internal/fft.", "ft.self_s"},
	{"repro/internal/trace.", "trace.self_s"},
	{"repro/internal/metrics.", "metrics.self_s"},
	{"repro/internal/causality.", "causality.self_s"},
	{"repro/internal/sweep.", "sweep.self_s"},
	{"runtime.", "runtime.self_s"},
	{"runtime/", "runtime.self_s"},
	{"internal/runtime/", "runtime.self_s"},
}

// selfTimes groups a CPU profile's flat samples by layer, using the
// toolchain's `go tool pprof -top` for symbolization.
func selfTimes(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	self := map[string]float64{"unattributed_s": 0}
	for _, l := range layerOf {
		self[l.metric] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		// flat flat% sum% cum cum% name, where name may contain spaces.
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		name, metric := strings.Join(f[5:], " "), "unattributed_s"
		for _, l := range layerOf {
			if strings.HasPrefix(name, l.prefix) {
				metric = l.metric
				break
			}
		}
		self[metric] += ms / 1e3
	}
	return self, sc.Err()
}

// runtimeSample reads the Go runtime's allocation and GC totals.
func runtimeSample() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// runtimeDelta reports the runtime metrics accrued since before.
func runtimeDelta(before []metrics.Sample) map[string]float64 {
	after := runtimeSample()
	d := func(i int) float64 { return sampleValue(after[i]) - sampleValue(before[i]) }
	return map[string]float64{
		"runtime.alloc_mb":  d(0) / (1 << 20),
		"runtime.allocs":    d(1),
		"runtime.gc_cycles": d(2),
		"runtime.gc_cpu_s":  d(3),
	}
}

// layerRun is what one traced run measured.
type layerRun struct {
	r        round
	manifest *rmetrics.Manifest
	p        *probes
	wall     float64
	profile  string // CPU profile path
}

// tracedRun runs the workload once with the observer stack attached,
// every sink timed, and a CPU profile written to dir/<name>.pprof.
// Serial workloads attach a digest session and a metrics collection,
// which is enough for the manifest counts; observed workloads run as in
// their end-to-end pass.
func tracedRun(w workload, seed int64, dir string) (layerRun, error) {
	lr := layerRun{p: newProbes(), profile: filepath.Join(dir, w.name+".pprof")}
	f, err := os.Create(lr.profile)
	if err != nil {
		return lr, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return lr, err
	}
	t0 := time.Now()
	if w.observed {
		lr.r, lr.manifest, err = runObserved(w, seed, dir, lr.p)
	} else {
		o := attach(false, lr.p)
		lr.r = runSerial(w)
		lr.manifest, _, err = o.finish(dir, w.name, seed)
	}
	lr.wall = time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	return lr, err
}

// counts reads the exact per-layer counts of a traced run from its
// outcomes, its manifest and the stream the sinks saw.
func counts(lr layerRun) map[string]float64 {
	c := lr.manifest.Counters
	s := &lr.p.stream
	var commBytes int64
	for k, v := range c {
		if strings.HasPrefix(k, "comm.") && strings.HasSuffix(k, ".bytes") {
			commBytes += v
		}
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]float64{
		"sim.events":            float64(s.events.Load()),
		"sim.procs":             float64(c["procs.spawned"]),
		"fabric.get_msgs":       float64(c["comm.get.msgs"]),
		"fabric.put_msgs":       float64(c["comm.put.msgs"]),
		"fabric.bytes":          float64(commBytes),
		"fabric.link_events":    float64(s.links),
		"fabric.inflight_peak":  float64(s.peakInflight),
		"upc.lock_ops":          float64(c["instant.upc/lock.n"] + c["instant.upc/trylock.n"] + c["instant.upc/unlock.n"]),
		"upc.xlate_miss":        float64(c["counter.xlate_miss"]),
		"uts.probes":            float64(c["counter.probes"]),
		"uts.steal_yield":       ratio(c["counter.steals"], c["counter.probes"]),
		"uts.local_share":       ratio(c["counter.steals_local"], c["counter.steals"]),
		"sweep.buffered_events": float64(lr.p.peakBuffered.Load()),
	}
}

// ledger predicts each layer's CPU seconds as an op cost times an exact
// count, and leaves the remainder of the measured cpu_s unattributed:
//   - sim: a PingPongYield op is two park/unpark handoffs, paid once per
//     park event;
//   - fabric: every network transfer pays the uncontended put, plus a
//     fluid-model share that grows linearly with the flows in flight
//     (zero at one flow, fabric.flow4096_ns - fabric.put_ns at 4,096),
//     summed over each transfer's in-flight count at its start;
//   - uts: one SHA-1 child derivation per tree node.
func ledger(ops map[string]float64, lr layerRun, nodes int64, cpu float64) map[string]float64 {
	s := &lr.p.stream
	simS := ops["sim.yield_ns"] / 2 * float64(s.parks) / 1e9
	slope := (ops["fabric.flow4096_ns"] - ops["fabric.put_ns"]) / (flowWidth - 1)
	if slope < 0 {
		slope = 0
	}
	fabricS := (ops["fabric.put_ns"]*float64(s.flowStarts) + slope*float64(s.flowSum-s.flowStarts)) / 1e9
	utsS := ops["uts.child_ns"] * float64(nodes) / 1e9
	return map[string]float64{
		"ledger.sim_s":          simS,
		"ledger.fabric_s":       fabricS,
		"ledger.uts_s":          utsS,
		"ledger.unattributed_s": cpu - simS - fabricS - utsS,
	}
}
