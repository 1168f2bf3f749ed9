package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/causality"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// round is one pass over a workload's simulations.
type round struct {
	outs []outcome
	errs []error
	// rawWall and rawCPU hold one entry per simulation for serial
	// workloads and one for the whole sweep of an observed workload, whose
	// simulations overlap. wall and cpu are the reported times: for a
	// serial simulation, the raw ones scaled by probeRefSeconds over the
	// mean contentionProbe time before and after it; for the sweep, whose
	// two threads one probe cannot represent, the raw ones.
	wall, cpu, rawWall, rawCPU []float64
	// Observed workloads only: the stream's event count and digest, and
	// the SHA-256 of the manifest written.
	events      int64
	digest      uint64
	manifestSHA string
}

// runSerial runs the simulations one after another on the calling
// goroutine. Engines pick up the process-default tracer, so the caller
// decides whether the pass is traced.
func runSerial(w workload) round {
	r := round{outs: make([]outcome, len(w.sims)), errs: make([]error, len(w.sims))}
	for i, s := range w.sims {
		// Collect the previous simulation's garbage off the clock, so each
		// time covers its own simulation only.
		runtime.GC()
		p0 := contentionProbe()
		c0, t0 := cpuSeconds(), time.Now()
		r.outs[i], r.errs[i] = s.run(nil)
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
		scale := probeRefSeconds / ((p0 + contentionProbe()) / 2)
		r.rawWall = append(r.rawWall, wall)
		r.rawCPU = append(r.rawCPU, cpu)
		r.wall = append(r.wall, wall*scale)
		r.cpu = append(r.cpu, cpu*scale)
	}
	return r
}

// observers is the -metrics -analyze observer stack: a digest-only trace
// session with a metrics collection and, optionally, a causality recorder
// attached. With probes set every sink is wrapped in a timing wrapper.
type observers struct {
	sess *trace.Session
	coll *metrics.Collection
	rec  *causality.Recorder
	p    *probes
}

// attach starts the session and attaches the sinks. It must run before
// the first engine is built: engines resolve sink capabilities once, at
// construction.
func attach(causal bool, p *probes) *observers {
	o := &observers{sess: trace.StartSession(""), coll: metrics.NewCollection(), p: p}
	trace.SetDefault(p.wrap("trace", trace.Default()))
	o.sess.Attach(p.wrap("metrics", o.coll))
	if causal {
		o.rec = causality.NewRecorder()
		o.sess.Attach(p.wrap("causality", o.rec))
	}
	return o
}

// finish closes the session and writes the analysis (if recorded) and the
// manifest into dir, returning the manifest and its SHA-256.
func (o *observers) finish(dir, name string, seed int64) (*metrics.Manifest, string, error) {
	if err := o.sess.Close(); err != nil {
		return nil, "", err
	}
	var exp *causality.Export
	if o.rec != nil {
		t := time.Now()
		exp = o.rec.Export()
		err := exp.WriteFile(filepath.Join(dir, name+"-analysis.json"))
		o.p.addExport(time.Since(t))
		if err != nil {
			return nil, "", err
		}
	}
	t := time.Now()
	m := o.coll.Manifest("perfbench", map[string]string{"workload": name, "seed": strconv.FormatInt(seed, 10)})
	m.Analysis = exp
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		return nil, "", err
	}
	err := os.WriteFile(filepath.Join(dir, name+"-manifest.json"), buf.Bytes(), 0o644)
	o.p.addManifest(time.Since(t))
	if err != nil {
		return nil, "", fmt.Errorf("writing manifest: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return m, hex.EncodeToString(sum[:]), nil
}

// runObserved runs the simulations through sweep.Run at width w.procs with
// the observer stack attached, then writes the manifest and analysis.
func runObserved(w workload, seed int64, dir string, p *probes) (round, *metrics.Manifest, error) {
	runtime.GC()
	r := round{outs: make([]outcome, len(w.sims)), errs: make([]error, len(w.sims))}
	c0, t0 := cpuSeconds(), time.Now()
	o := attach(true, p)
	sweep.SetWorkers(w.procs)
	// Per-simulation errors land in r.errs; the oracle counts them.
	_ = sweep.Run(len(w.sims), func(i int, tr trace.Tracer) error {
		r.outs[i], r.errs[i] = w.sims[i].run(p.job(tr))
		p.jobDone()
		return r.errs[i]
	})
	p.sweepReturned()
	m, sha, err := o.finish(dir, w.name, seed)
	r.rawWall = []float64{time.Since(t0).Seconds()}
	r.rawCPU = []float64{cpuSeconds() - c0}
	r.wall, r.cpu = r.rawWall, r.rawCPU
	if err != nil {
		return r, nil, err
	}
	r.events, r.digest, r.manifestSHA = o.sess.Events(), o.sess.Digest(), sha
	return r, m, nil
}

// runRound runs one untraced pass of an end-to-end measurement.
func runRound(w workload, seed int64, dir string) (round, error) {
	if w.observed {
		r, _, err := runObserved(w, seed, dir, nil)
		return r, err
	}
	return runSerial(w), nil
}

// eventCounter is a plain sink: it asks for no optional events.
type eventCounter struct{ n int64 }

func (c *eventCounter) Emit(trace.Event) { c.n++ }

// plainEvents runs a serial workload once with a plain sink installed and
// returns the outcomes and the number of events the engines emitted.
func plainEvents(w workload) (round, int64) {
	c := &eventCounter{}
	prev := trace.Default()
	trace.SetDefault(c)
	defer trace.SetDefault(prev)
	return runSerial(w), c.n
}
