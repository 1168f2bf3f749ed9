package fabric

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

func lehmanCluster(seed int64) (*sim.Engine, *Cluster) {
	e := sim.New(seed)
	return e, NewCluster(e, topo.Lehman(), QDRInfiniBand())
}

// TestClusterLinks checks the links NewCluster carves from one array:
// each table in order, named and sized as a per-link construction would.
func TestClusterLinks(t *testing.T) {
	_, c := lehmanCluster(1)
	m, cond := c.Mach, c.Conduit
	check := func(l *Link, name string, capacity, beta float64) {
		t.Helper()
		if l.Name != name || l.Capacity != capacity || l.Beta != beta {
			t.Errorf("link %+v, want %s at %v (beta %v)", *l, name, capacity, beta)
		}
	}
	if len(c.cores) != m.TotalCores() || len(c.mem) != m.Nodes*m.SocketsPerNode ||
		len(c.egress) != m.Nodes || len(c.ingress) != m.Nodes {
		t.Fatalf("link tables %d/%d/%d/%d", len(c.cores), len(c.mem), len(c.egress), len(c.ingress))
	}
	for i, l := range c.cores {
		check(l, fmt.Sprintf("core%d", i), m.SMTThroughput*workScale, 0)
	}
	for i, l := range c.mem {
		check(l, fmt.Sprintf("mem%d", i), m.MemBWSocket, 0)
	}
	for i := range c.egress {
		check(c.egress[i], fmt.Sprintf("nic-tx%d", i), cond.NICBW, cond.NICBeta)
		check(c.ingress[i], fmt.Sprintf("nic-rx%d", i), cond.NICBW, cond.NICBeta)
	}
}

func TestComputeAloneRunsAtFullSpeed(t *testing.T) {
	e, c := lehmanCluster(1)
	var done sim.Time
	e.Go("p", func(p *sim.Proc) {
		c.Compute(p, topo.Place{}, 0.001) // 1 ms of work
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(sim.Millisecond); abs(done-want) > 10*sim.Microsecond {
		t.Errorf("1ms of work took %v", done)
	}
}

func TestComputeSMTSharing(t *testing.T) {
	// Two threads on SMT siblings of one core: each 1ms of work, combined
	// throughput 1.2 => both finish at ~2/1.2 = 1.667ms.
	e, c := lehmanCluster(1)
	var worst sim.Time
	for s := 0; s < 2; s++ {
		pl := topo.Place{SMT: s}
		e.Go(fmt.Sprintf("t%d", s), func(p *sim.Proc) {
			c.Compute(p, pl, 0.001)
			if p.Now() > worst {
				worst = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.FromSeconds(0.002 / 1.2)
	if abs(worst-want) > 20*sim.Microsecond {
		t.Errorf("SMT pair finished at %v, want ~%v", worst, want)
	}
}

func TestComputeSeparateCoresIndependent(t *testing.T) {
	e, c := lehmanCluster(1)
	var worst sim.Time
	for i := 0; i < 2; i++ {
		pl := topo.Place{Core: i}
		e.Go(fmt.Sprintf("t%d", i), func(p *sim.Proc) {
			c.Compute(p, pl, 0.001)
			if p.Now() > worst {
				worst = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(sim.Millisecond); abs(worst-want) > 10*sim.Microsecond {
		t.Errorf("independent cores finished at %v, want ~%v", worst, want)
	}
}

// memCopy copies size bytes between two places of one node and waits
// for the copy to drain.
func memCopy(t *testing.T, p *sim.Proc, c *Cluster, from, to topo.Place, size int64, overhead sim.Duration) {
	op, err := c.MemCopyAsync(p, from, to, size, overhead, nil)
	if err != nil {
		t.Error(err)
		return
	}
	op.WaitRemote(p)
	op.Release()
}

func TestMemCopyLocalVsCrossSocket(t *testing.T) {
	e, c := lehmanCluster(1)
	size := int64(64 << 20)
	var local, cross sim.Time
	e.Go("local", func(p *sim.Proc) {
		start := p.Now()
		memCopy(t, p, c, topo.Place{Socket: 0}, topo.Place{Socket: 0, Core: 1}, size, 0)
		local = p.Now() - start
	})
	e.Go("cross", func(p *sim.Proc) {
		p.Advance(sim.Second) // avoid contention with the local copy
		start := p.Now()
		memCopy(t, p, c, topo.Place{Socket: 0}, topo.Place{Socket: 1}, size, 0)
		cross = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(cross) / float64(local)
	if ratio < 1.2 || ratio > 1.45 {
		t.Errorf("cross-socket/local copy ratio = %.2f, want ~NUMA factor 1.3", ratio)
	}
}

func TestMemCopyAcrossNodesError(t *testing.T) {
	e, c := lehmanCluster(1)
	var op *NetOp
	var err error
	e.Go("p", func(p *sim.Proc) {
		op, err = c.MemCopyAsync(p, topo.Place{Node: 0}, topo.Place{Node: 1}, 100, 0, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if op != nil {
		t.Error("cross-node MemCopyAsync returned a handle")
	}
	if !errors.Is(err, ErrCrossNode) {
		t.Errorf("cross-node MemCopyAsync error = %v, want ErrCrossNode", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Op != "memcopy" {
		t.Errorf("cross-node MemCopyAsync error %v is not a typed *fabric.Error with Op memcopy", err)
	}
}

func TestPutLatencyAndBandwidthRegimes(t *testing.T) {
	// A small blocking put should cost a few microseconds (latency-bound);
	// a 1 MB put should approach size/ConnBW (bandwidth-bound).
	e, c := lehmanCluster(1)
	ep0 := c.MustEndpoint(0)
	ep1 := c.MustEndpoint(1)
	var small, large sim.Duration
	e.Go("p", func(p *sim.Proc) {
		start := p.Now()
		ep0.Put(p, ep1, 8, nil)
		small = p.Now() - start
		start = p.Now()
		ep0.Put(p, ep1, 1<<20, nil)
		large = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if small < 2*sim.Microsecond || small > 10*sim.Microsecond {
		t.Errorf("8B blocking put = %v, want one-digit microseconds", small)
	}
	floor := sim.TransferTime(1<<20, c.Conduit.ConnBW)
	if large < floor {
		t.Errorf("1MB put = %v, below bandwidth floor %v", large, floor)
	}
	if large > floor+20*sim.Microsecond {
		t.Errorf("1MB put = %v, far above bandwidth floor %v", large, floor)
	}
}

func TestGetRoundTrip(t *testing.T) {
	e, c := lehmanCluster(1)
	ep0 := c.MustEndpoint(0)
	ep1 := c.MustEndpoint(1)
	applied := false
	var rtt sim.Duration
	e.Go("p", func(p *sim.Proc) {
		start := p.Now()
		op := ep0.GetAsync(p, ep1, 8, func() { applied = true })
		op.WaitRemote(p)
		rtt = p.Now() - start
		op.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Error("get apply callback did not run")
	}
	// Small-message get RTT: two latencies plus overheads — the 4–5 us
	// regime of Figure 4.2(a).
	if rtt < 3*sim.Microsecond || rtt > 8*sim.Microsecond {
		t.Errorf("8B get RTT = %v, want ~4-6us", rtt)
	}
}

func TestSharedConnectionSerializesInjection(t *testing.T) {
	// Eight flooders on ONE endpoint (pthreads backend) must take longer
	// for small messages than eight flooders on eight endpoints
	// (process backend), because the injection gap serializes.
	run := func(shared bool) sim.Time {
		e, c := lehmanCluster(1)
		dst := make([]*Endpoint, 8)
		for i := range dst {
			dst[i] = c.MustEndpoint(1)
		}
		var eps []*Endpoint
		if shared {
			one := c.MustEndpoint(0)
			for i := 0; i < 8; i++ {
				eps = append(eps, one)
			}
		} else {
			for i := 0; i < 8; i++ {
				eps = append(eps, c.MustEndpoint(0))
			}
		}
		var worst sim.Time
		for i := 0; i < 8; i++ {
			i := i
			e.Go(fmt.Sprintf("f%d", i), func(p *sim.Proc) {
				for k := 0; k < 20; k++ {
					eps[i].Put(p, dst[i], 8, nil)
				}
				if p.Now() > worst {
					worst = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return worst
	}
	sharedT, procT := run(true), run(false)
	if sharedT <= procT {
		t.Errorf("shared connection (%v) should be slower than per-process (%v) for small messages",
			sharedT, procT)
	}
}

func TestMultiConnectionBandwidthExceedsOne(t *testing.T) {
	// Aggregate flood bandwidth with 4 connections must exceed a single
	// connection's (NIC cap 2.5 GB/s > conn cap 1.5 GB/s).
	run := func(conns int) float64 {
		e, c := lehmanCluster(1)
		size := int64(4 << 20)
		var worst sim.Time
		for i := 0; i < conns; i++ {
			src := c.MustEndpoint(0)
			dst := c.MustEndpoint(1)
			e.Go(fmt.Sprintf("f%d", i), func(p *sim.Proc) {
				op := src.PutAsync(p, dst, size, nil)
				op.WaitRemote(p)
				if p.Now() > worst {
					worst = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(size*int64(conns)) / worst.Seconds()
	}
	one, four := run(1), run(4)
	if four < 1.4*one {
		t.Errorf("4-connection bandwidth %.0f should be well above 1-connection %.0f", four, one)
	}
	if four > 2.6e9 {
		t.Errorf("aggregate bandwidth %.0f exceeds NIC cap", four)
	}
}

func TestLoopbackSlowerThanMemCopy(t *testing.T) {
	// Intra-node network loopback (no PSHM) must be slower than a direct
	// shared-memory copy — the premise of Figure 3.4.
	e, c := lehmanCluster(1)
	size := int64(1 << 20)
	var loop, shm sim.Duration
	epA := c.MustEndpoint(0)
	epB := c.MustEndpoint(0)
	e.Go("p", func(p *sim.Proc) {
		start := p.Now()
		epA.Put(p, epB, size, nil)
		loop = p.Now() - start
		start = p.Now()
		memCopy(t, p, c, topo.Place{Socket: 0}, topo.Place{Socket: 1}, size, 200*sim.Nanosecond)
		shm = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if loop <= shm {
		t.Errorf("loopback (%v) must be slower than shared-memory copy (%v)", loop, shm)
	}
}

func TestBarrierCostGrowsWithNodes(t *testing.T) {
	_, c := lehmanCluster(1)
	b1 := c.BarrierCost(1)
	b2 := c.BarrierCost(2)
	b16 := c.BarrierCost(16)
	if !(b1 < b2 && b2 < b16) {
		t.Errorf("barrier costs not monotone: %v, %v, %v", b1, b2, b16)
	}
	// log2(16) = 4 rounds: cost roughly 4x the 2-node single round's
	// network part.
	if b16 > 10*b2 {
		t.Errorf("16-node barrier %v implausibly large vs 2-node %v", b16, b2)
	}
}

func TestConduitPresets(t *testing.T) {
	for _, name := range Conduits() {
		cond, ok := ConduitByName(name)
		if !ok {
			t.Fatalf("conduit %q missing", name)
		}
		if cond.ConnBW <= 0 || cond.NICBW < cond.ConnBW {
			t.Errorf("%s: ConnBW %g, NICBW %g inconsistent", name, cond.ConnBW, cond.NICBW)
		}
		if cond.Latency <= 0 {
			t.Errorf("%s: latency %v", name, cond.Latency)
		}
	}
	if _, ok := ConduitByName("smoke-signals"); ok {
		t.Error("unknown conduit should not resolve")
	}
	// Ethernet must be far slower than QDR IB in both latency and bandwidth.
	eth, _ := ConduitByName("gige")
	qdr, _ := ConduitByName("ibv-qdr")
	if eth.Latency < 5*qdr.Latency || eth.ConnBW > qdr.ConnBW/5 {
		t.Error("GigE should be much slower than QDR InfiniBand")
	}
}

func TestEndpointOutOfRangeError(t *testing.T) {
	_, c := lehmanCluster(1)
	for _, node := range []int{-1, 99} {
		ep, err := c.NewEndpoint(node)
		if ep != nil || !errors.Is(err, ErrBadNode) {
			t.Errorf("NewEndpoint(%d) = %v, %v, want nil + ErrBadNode", node, ep, err)
		}
	}
	// MustEndpoint keeps the construction-time panic contract, carrying
	// the typed error as the panic value.
	defer func() {
		v := recover()
		err, ok := v.(error)
		if !ok || !errors.Is(err, ErrBadNode) {
			t.Fatalf("MustEndpoint panic value = %v, want typed ErrBadNode", v)
		}
	}()
	c.MustEndpoint(99)
}
