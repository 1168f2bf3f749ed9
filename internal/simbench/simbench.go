// Package simbench holds the engine, fabric, upc and observer
// microbenchmark bodies shared by the go-test benchmarks (internal/sim)
// and the cmd/upc-bench recorder. They live outside a _test.go file so upc-bench can drive
// them through testing.Benchmark and write the results — ns/op and
// allocs/op — to BENCH_sim.json, the committed baseline the CI bench job
// regresses against.
//
// Every figure and table of the reproduction is regenerated through
// millions of park/unpark cycles, event-heap operations and resource
// waits, so per-yield cost here is wall-clock cost everywhere.
package simbench

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/upc"
)

// PingPongYield is the headline handoff benchmark: two processes
// alternately yield to each other, so each op is one schedule + one
// park/unpark handoff per process.
func PingPongYield(b *testing.B) {
	b.ReportAllocs()
	e := sim.New(1)
	for i := 0; i < 2; i++ {
		e.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			for n := 0; n < b.N; n++ {
				p.Yield()
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// Advance measures the solo-process path: one heap push, one pop, one
// park/unpark per op, with the clock moving every time.
func Advance(b *testing.B) {
	b.ReportAllocs()
	e := sim.New(1)
	e.Go("p", func(p *sim.Proc) {
		for n := 0; n < b.N; n++ {
			p.Advance(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BarrierStorm runs one barrier generation of the given width per op:
// every process parks on the WaitQueue and the last arrival wakes them
// all, so each op is ~width queue appends, wakes and handoffs. One
// warm-up generation starts every process's coroutine and grows the
// queue off the clock: the first process it releases resets the timer.
func BarrierStorm(b *testing.B, procs int) {
	b.ReportAllocs()
	e := sim.New(1)
	bar := sim.NewBarrier(procs)
	warm := false
	for i := 0; i < procs; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			bar.Wait(p)
			if !warm {
				warm = true
				b.ResetTimer()
			}
			for n := 0; n < b.N; n++ {
				bar.Wait(p)
			}
		})
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BarrierStorm1k is BarrierStorm at the recorded 1000-process width.
func BarrierStorm1k(b *testing.B) { BarrierStorm(b, 1000) }

// ServerDelay measures the FCFS resource fast path: each op is one
// occupancy charge plus the advance to its completion.
func ServerDelay(b *testing.B) {
	b.ReportAllocs()
	e := sim.New(1)
	var srv sim.Server
	e.Go("p", func(p *sim.Proc) {
		for n := 0; n < b.N; n++ {
			srv.Delay(p, 1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// SharedLink32Flows measures the blocking flow path that Compute and
// MemTouch charge through, fabric.Net.Transfer, under load: 32
// processes each keep moving 1000 B over one 1 GB/s link, so every
// start and finish settles a class of ~32 flows and wakes its waiter.
// FabricFlows4096 times the pooled completion-action path at scale.
func SharedLink32Flows(b *testing.B) {
	b.ReportAllocs()
	e := sim.New(1)
	n := fabric.NewNet(e)
	l := fabric.NewLink("link", 1e9)
	for i := 0; i < 32; i++ {
		e.Go(fmt.Sprintf("f%d", i), func(p *sim.Proc) {
			for k := 0; k < b.N; k++ {
				n.Transfer(p, 1000, 0, l)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// FabricPut measures the untraced, fault-free cross-node blocking put —
// the network hot path every PGAS operation rides. With no fault
// schedule installed the injection hooks reduce to two nil checks, so
// the recorded allocs/op pins the fault layer's disabled cost: any
// allocation it grows here fails upc-bench -check (allocs comparisons
// are exact).
func FabricPut(b *testing.B) {
	b.ReportAllocs()
	e := sim.New(1)
	c := fabric.NewCluster(e, topo.Pyramid(), fabric.QDRInfiniBand())
	src := c.MustEndpoint(0)
	dst := c.MustEndpoint(1)
	e.Go("p", func(p *sim.Proc) {
		for n := 0; n < b.N; n++ {
			src.Put(p, dst, 8, nil)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// UPCPutGet measures the upc runtime's split-phase one-sided pair over
// the network: each op is one cross-node PutBytesAsync and one typed
// GetAsyncT, each completed by WaitSync. Handles come from the
// runtime's free list and the get's typed payload record from the
// array's, and WaitSync returns both, so a warm op allocates nothing:
// upc-bench -check holds it at zero allocs/op, like FabricPut.
func UPCPutGet(b *testing.B) {
	b.ReportAllocs()
	cfg := upc.Config{Machine: topo.Lehman(), Threads: 2, ThreadsPerNode: 1, Seed: 1}
	_, err := upc.Run(cfg, func(t *upc.Thread) {
		s := upc.Alloc[int64](t, 2, 8, 1)
		if t.ID != 0 {
			return
		}
		buf := make([]int64, 1)
		op := func() {
			t.WaitSync(t.PutBytesAsync(1, 8))
			t.WaitSync(upc.GetAsyncT(t, s, buf, 1, 0))
		}
		op() // fill the free lists off the clock
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			op()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// flowWidth is FabricFlows4096's in-flight flow count: the NAS FT
// all-to-all's peak concurrency.
const flowWidth = 4096

// flowRefill keeps flowWidth pooled flows in flight across a cluster's
// NICs: each completion starts the next flow until b.N have completed.
type flowRefill struct {
	b       *testing.B
	net     *fabric.Net
	tx, rx  []*fabric.Link
	cap     float64
	started int
	done    int
}

// start launches the next flow from tx[k%8] to rx[(k/8)%8], with sizes
// spread over 64-128 KiB so completions stagger.
func (r *flowRefill) start() {
	k := r.started
	r.started++
	size := int64(64<<10 + k*40503%(64<<10))
	r.net.StartAction(size, r.cap, r, r.tx[k%len(r.tx)], r.rx[(k/len(r.tx))%len(r.rx)])
}

// Run is every flow's completion action.
func (r *flowRefill) Run() {
	r.done++
	switch {
	case r.done < r.b.N:
		r.start()
	case r.done == r.b.N:
		r.b.StopTimer() // the rest drain off the clock
	}
}

// FabricFlows4096 measures the fabric fluid model at the NAS FT
// all-to-all's peak concurrency: each op is one pooled Net.StartAction
// on a cluster's NICs plus one completion, with 4,096 flows in flight
// across 8 nodes' egress and ingress links. Each start and finish
// re-settles the flows on the links it touches.
func FabricFlows4096(b *testing.B) {
	b.ReportAllocs()
	e := sim.New(1)
	cond := fabric.QDRInfiniBand()
	c := fabric.NewCluster(e, topo.Lehman(), cond)
	r := &flowRefill{b: b, net: c.Net, cap: cond.ConnBW}
	for i := 0; i < 8; i++ {
		r.tx = append(r.tx, c.LinkByName(fmt.Sprintf("nic-tx%d", i)))
		r.rx = append(r.rx, c.LinkByName(fmt.Sprintf("nic-rx%d", i)))
	}
	for i := 0; i < flowWidth; i++ {
		r.start()
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// observerMix is ObserverEmit's event cycle: the kinds an observed UTS
// sweep emits most — link-occupancy changes, transfers, plain instants,
// spans and counters — in roughly their proportions there.
var observerMix = [...]trace.Event{
	{Kind: trace.KInstant, Proc: 3, Cat: trace.CatComm, Name: "get", Aux: trace.ClassNetwork, Arg: 8, Arg2: trace.PackEndpoints(7, 3, 1, 0)},
	{Kind: trace.KInstant, Proc: trace.EngineProc, Cat: trace.CatLink, Name: "nic-tx1", Arg: 1, Arg2: 3200000000},
	{Kind: trace.KInstant, Proc: trace.EngineProc, Cat: trace.CatLink, Name: "nic-rx0", Arg: 1, Arg2: 3200000000},
	{Kind: trace.KInstant, Proc: 3, Cat: "fabric", Name: "get", Aux: trace.ClassNetwork, Arg: 8, Arg2: 7},
	{Kind: trace.KSpanBegin, Proc: 3, Cat: "upc", Name: "lock"},
	{Kind: trace.KInstant, Proc: trace.EngineProc, Cat: trace.CatLink, Name: "nic-tx1", Arg: 0, Arg2: 3200000000},
	{Kind: trace.KInstant, Proc: trace.EngineProc, Cat: trace.CatLink, Name: "nic-rx0", Arg: 0, Arg2: 3200000000},
	{Kind: trace.KInstant, Proc: trace.EngineProc, Cat: "fabric", Name: "deliver", Arg: 8, Arg2: 3},
	{Kind: trace.KSpanEnd, Proc: 3, Cat: "upc", Name: "lock"},
	{Kind: trace.KCounter, Proc: 3, Cat: "uts", Name: "probes", Arg: 1},
}

// ObserverEmit measures the observer pipeline of a -digest -metrics run:
// each op delivers one event of a fixed mix through a digest-only trace
// session with a metrics.Collection attached, paying the fan-out, the
// session digest (which the collection shares) and the collection's
// aggregation. Every registry entry the mix feeds is resolved on its
// first event, so the op allocates nothing.
func ObserverEmit(b *testing.B) {
	b.ReportAllocs()
	prev := trace.Default()
	trace.SetDefault(nil)
	defer trace.SetDefault(prev)
	s := trace.StartSession("")
	defer s.Close()
	s.Attach(metrics.NewCollection())
	tr := trace.Default()
	tr.Emit(trace.Event{Kind: trace.KRunBegin, Proc: trace.EngineProc, Cat: "sim", Name: "run", Arg: 1})
	for _, e := range observerMix {
		tr.Emit(e)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e := observerMix[n%len(observerMix)]
		e.Time = int64(n)
		tr.Emit(e)
	}
}

// All lists the recorded microbenchmarks in BENCH_sim.json order.
var All = []struct {
	Name string
	Fn   func(*testing.B)
}{
	{"PingPongYield", PingPongYield},
	{"Advance", Advance},
	{"BarrierStorm1k", BarrierStorm1k},
	{"ServerDelay", ServerDelay},
	{"SharedLink32Flows", SharedLink32Flows},
	{"FabricPut", FabricPut},
	{"FabricFlows4096", FabricFlows4096},
	{"ObserverEmit", ObserverEmit},
	{"UPCPutGet", UPCPutGet},
}
