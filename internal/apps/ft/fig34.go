package ft

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/upc"
)

// ExchangeMode enumerates the runtime configurations of Figure 3.4.
type ExchangeMode int

const (
	// ExBase: process UPC, no PSHM — intra-node puts take the network
	// loopback.
	ExBase ExchangeMode = iota
	// ExPSHM: process UPC with inter-process shared memory.
	ExPSHM
	// ExPSHMCast: PSHM plus the manual cast + memcpy optimization.
	ExPSHMCast
	// ExPthreads: the pthreads backend.
	ExPthreads
	// ExPthreadsCast: pthreads plus manual cast + memcpy.
	ExPthreadsCast
)

// String names the mode as in the figure's legend.
func (m ExchangeMode) String() string {
	switch m {
	case ExBase:
		return "base"
	case ExPSHM:
		return "PSHM"
	case ExPSHMCast:
		return "PSHM + cast"
	case ExPthreads:
		return "pthreads"
	case ExPthreadsCast:
		return "pthreads + cast"
	}
	return fmt.Sprintf("ExchangeMode(%d)", int(m))
}

// ExchangeModes lists the Figure 3.4 configurations in legend order.
func ExchangeModes() []ExchangeMode {
	return []ExchangeMode{ExBase, ExPSHM, ExPSHMCast, ExPthreads, ExPthreadsCast}
}

// ExchangeConfig parameterizes one Figure 3.4 measurement: the NAS FT
// all-to-all in isolation on a fixed number of Pyramid nodes.
type ExchangeConfig struct {
	Class   Class
	Threads int
	PerNode int
	Mode    ExchangeMode
	Async   bool // Figure 3.4(b): non-blocking puts with explicit sync
	Repeats int  // exchanges to run (default 3)
	Seed    int64
	// Tracer, when non-nil, receives the run's trace events.
	Tracer trace.Tracer
}

// ExchangeResult is one measurement: time spent issuing the copies and,
// for the async form, time spent in upc_waitsync.
type ExchangeResult struct {
	Call  sim.Duration
	Wait  sim.Duration
	Total sim.Duration
}

// RunExchange measures the all-to-all exchange of the class geometry
// under the given runtime configuration.
func RunExchange(cfg ExchangeConfig) (ExchangeResult, error) {
	if cfg.Repeats <= 0 {
		cfg.Repeats = 3
	}
	if !cfg.Class.Decomposable(cfg.Threads) {
		return ExchangeResult{}, fmt.Errorf("ft: class %v does not decompose over %d threads",
			cfg.Class, cfg.Threads)
	}
	backend := upc.Processes
	pshm := false
	cast := false
	switch cfg.Mode {
	case ExPSHM:
		pshm = true
	case ExPSHMCast:
		pshm, cast = true, true
	case ExPthreads:
		backend = upc.Pthreads
	case ExPthreadsCast:
		backend = upc.Pthreads
		cast = true
	}
	ucfg := upc.Config{
		Machine:        topo.Pyramid(),
		Threads:        cfg.Threads,
		ThreadsPerNode: cfg.PerNode,
		Backend:        backend,
		PSHM:           pshm,
		Binding:        topo.BindSocketRR,
		Seed:           cfg.Seed,
		Tracer:         cfg.Tracer,
	}
	blockBytes := int64(cfg.Class.Total()) * 16 / int64(cfg.Threads) / int64(cfg.Threads)

	var call, wait sim.Duration // maxima across threads
	_, err := upc.Run(ucfg, func(t *upc.Thread) {
		var myCall, myWait sim.Duration
		put := func(dst int) *upc.Handle {
			if cast {
				return t.CastPutAsync(dst, blockBytes)
			}
			return t.PutBytesAsync(dst, blockBytes)
		}
		handles := make([]*upc.Handle, 0, t.N)
		for rep := 0; rep < cfg.Repeats; rep++ {
			t.Barrier()
			handles = handles[:0]
			c0 := t.Now()
			if cfg.Async {
				for k := 1; k <= t.N; k++ {
					handles = append(handles, put((t.ID+k)%t.N))
				}
			} else {
				for k := 1; k <= t.N; k++ {
					h := put((t.ID + k) % t.N)
					t.WaitSync(h)
				}
			}
			c1 := t.Now()
			t.WaitAll(handles)
			t.Barrier()
			c2 := t.Now()
			myCall += c1 - c0
			myWait += c2 - c1
		}
		if myCall > call {
			call = myCall
		}
		if myWait > wait {
			wait = myWait
		}
	})
	if err != nil {
		return ExchangeResult{}, err
	}
	return ExchangeResult{Call: call, Wait: wait, Total: call + wait}, nil
}
