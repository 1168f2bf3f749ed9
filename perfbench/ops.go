package main

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/apps/uts"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/simbench"
)

// flowWidth is ft-alltoall's peak fluid-model concurrency: split-phase
// FT at 64 processes bursts 64x64 puts at once.
const flowWidth = 4096

// opBenches are the per-layer op costs, timed in isolation.
var opBenches = []struct {
	name string
	fn   func(*testing.B)
}{
	{"sim.yield_ns", simbench.PingPongYield},
	{"sim.advance_ns", simbench.Advance},
	{"sim.barrier1k_ns", simbench.BarrierStorm1k},
	{"fabric.put_ns", simbench.FabricPut},
	{"fabric.share32_ns", simbench.SharedLink32Flows},
	{"fabric.flow4096_ns", flow4096},
	{"uts.child_ns", utsChild},
}

// opCosts times every op benchmark on one P, as cmd/upc-bench does for
// the single-engine benchmarks, and reports ns per op.
func opCosts() map[string]float64 {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	out := map[string]float64{}
	for _, b := range opBenches {
		runtime.GC()
		r := testing.Benchmark(b.fn)
		out[b.name] = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return out
}

// refill keeps flowWidth pooled flows in flight on one fabric.Net: each
// completion starts a replacement until b.N flows have completed.
type refill struct {
	b       *testing.B
	net     *fabric.Net
	links   []*fabric.Link
	started int
	done    int
}

// start launches one flow from NIC k%8 to NIC (k/8)%8 of an 8-node
// cluster. The sizes differ, so completions arrive one at a time.
func (r *refill) start() {
	k := r.started
	r.started++
	size := int64(64<<10 + k*40503%(64<<10))
	r.net.StartAction(size, 0, r, r.links[k%8], r.links[8+(k/8)%8])
}

// Run is the completion action of every flow.
func (r *refill) Run() {
	r.done++
	switch {
	case r.done < r.b.N:
		r.start()
	case r.done == r.b.N:
		r.b.StopTimer() // the remaining flows drain off the clock
	}
}

// flow4096 measures one pooled flow through the fluid model at
// ft-alltoall's peak concurrency: per op, one Net.StartAction and one
// completion, each recomputing the rates of 4,096 flows in flight.
func flow4096(b *testing.B) {
	b.ReportAllocs()
	e := sim.New(1)
	r := &refill{b: b, net: fabric.NewNet(e)}
	for i := 0; i < 16; i++ {
		r.links = append(r.links, fabric.NewLink(fmt.Sprintf("nic%d", i), 3.2e9))
	}
	for i := 0; i < flowWidth; i++ {
		r.start()
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

var childSink uts.Node

// utsChild measures one SHA-1 child derivation, UTS's per-node kernel.
func utsChild(b *testing.B) {
	n := uts.Small(fullScale.utsNodes).Root()
	for i := 0; i < b.N; i++ {
		n = uts.Child(n, i&7)
	}
	childSink = n
}
