// Package netbench implements the multi-link network microbenchmarks of
// Section 4.3.1 (Figure 4.2): a varying number of point-to-point
// link-pairs between two cluster nodes, each pair either a process with
// its own network connection or a pthread sharing the node's single
// connection, measuring small-message round-trip latency and unidirectional
// flood bandwidth across message sizes.
package netbench

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/upc"
)

// Operations per link-pair: latency gets, and flood windows of puts.
const (
	latencyReps = 50
	floodReps   = 20
)

// Config parameterizes one microbenchmark sweep point on Lehman with its
// default conduit.
type Config struct {
	Links    int  // concurrent link-pairs between the two nodes
	Pthreads bool // share one connection per node
	Size     int64
	Window   int // flood: outstanding puts per pair (default 8)
	Seed     int64
	// Tracer, when non-nil, receives the run's trace events.
	Tracer trace.Tracer
}

// Result is one measured point.
type Result struct {
	// RTT is the mean round-trip latency per operation (latency test).
	RTT sim.Duration
	// BandwidthMBps is the aggregate unidirectional flood bandwidth in
	// decimal MB/s (flood test).
	BandwidthMBps float64
}

func (c *Config) upcConfig() (upc.Config, error) {
	if c.Links <= 0 {
		return upc.Config{}, fmt.Errorf("netbench: Links = %d", c.Links)
	}
	backend := upc.Processes
	if c.Pthreads {
		backend = upc.Pthreads
	}
	return upc.Config{
		Machine:        topo.Lehman(),
		Threads:        2 * c.Links,
		ThreadsPerNode: c.Links,
		Backend:        backend,
		PSHM:           true,
		Seed:           c.Seed,
		Tracer:         c.Tracer,
	}, nil
}

// Latency measures the mean round-trip time of a size-byte upc_memget
// across the configured link-pairs (Figure 4.2a). Initiators live on node
// 0; each gets from its partner on node 1.
func Latency(cfg Config) (Result, error) {
	ucfg, err := cfg.upcConfig()
	if err != nil {
		return Result{}, err
	}
	var total sim.Duration
	var ops int64
	_, err = upc.Run(ucfg, func(t *upc.Thread) {
		t.Barrier()
		if t.ID >= cfg.Links {
			return // passive target
		}
		partner := t.ID + cfg.Links
		for r := 0; r < latencyReps; r++ {
			start := t.Now()
			t.GetBytes(partner, cfg.Size)
			total += t.Now() - start
			ops++
		}
	})
	if err != nil {
		return Result{}, err
	}
	return Result{RTT: total / sim.Duration(ops)}, nil
}

// Flood measures aggregate unidirectional put bandwidth: every initiator
// keeps Window non-blocking puts of Size bytes in flight toward its
// partner for floodReps*Window messages (Figure 4.2b).
func Flood(cfg Config) (Result, error) {
	ucfg, err := cfg.upcConfig()
	if err != nil {
		return Result{}, err
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	var finish sim.Time
	_, err = upc.Run(ucfg, func(t *upc.Thread) {
		t.Barrier()
		if t.ID >= cfg.Links {
			return
		}
		partner := t.ID + cfg.Links
		window := make([]*upc.Handle, 0, cfg.Window)
		for r := 0; r < floodReps*cfg.Window; r++ {
			if len(window) == cfg.Window {
				t.WaitSync(window[0])
				window = window[1:]
			}
			window = append(window, t.PutBytesAsync(partner, cfg.Size))
		}
		t.WaitAll(window)
		if t.Now() > finish {
			finish = t.Now()
		}
	})
	if err != nil {
		return Result{}, err
	}
	totalBytes := int64(cfg.Links) * int64(floodReps*cfg.Window) * cfg.Size
	return Result{BandwidthMBps: float64(totalBytes) / finish.Seconds() / 1e6}, nil
}

// LatencySizes are the Figure 4.2(a) x-axis points (1B to 32KB).
func LatencySizes() []int64 {
	var out []int64
	for s := int64(1); s <= 32<<10; s <<= 1 {
		out = append(out, s)
	}
	return out
}

// FloodSizes are the Figure 4.2(b) x-axis points (64B to 2MB).
func FloodSizes() []int64 {
	var out []int64
	for s := int64(64); s <= 2<<20; s <<= 1 {
		out = append(out, s)
	}
	return out
}
