package fabric

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// The allocation-regression tests pin the untraced one-sided hot path
// at zero allocations per operation: operation records, flows and
// delivery legs all come from free lists, and the blocking Put releases
// its record internally. testing.AllocsPerRun runs inside the simulated
// process — the engine is otherwise idle, so any count it sees is the
// operation's own.

// blockingGet issues a get, waits for its delivery and releases the
// handle.
func blockingGet(p *sim.Proc, ep, src *Endpoint) {
	op := ep.GetAsync(p, src, 8, nil)
	op.WaitRemote(p)
	op.Release()
}

func TestBlockingPutNoAlloc(t *testing.T) {
	e := sim.New(1)
	c := NewCluster(e, topo.Pyramid(), QDRInfiniBand())
	src := c.MustEndpoint(0)
	dst := c.MustEndpoint(1)
	per := -1.0
	e.Go("p", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			src.Put(p, dst, 8, nil)
		}
		per = testing.AllocsPerRun(200, func() { src.Put(p, dst, 8, nil) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Errorf("blocking Put allocates %v allocs/op, want 0", per)
	}
	if out := c.PoolStats().Outstanding(); out != 0 {
		t.Errorf("pool leak: %d records outstanding after quiescence", out)
	}
}

func TestBlockingGetNoAlloc(t *testing.T) {
	e := sim.New(1)
	c := NewCluster(e, topo.Pyramid(), QDRInfiniBand())
	src := c.MustEndpoint(0)
	dst := c.MustEndpoint(1)
	per := -1.0
	e.Go("p", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			blockingGet(p, src, dst)
		}
		per = testing.AllocsPerRun(200, func() { blockingGet(p, src, dst) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Errorf("blocking Get allocates %v allocs/op, want 0", per)
	}
	if out := c.PoolStats().Outstanding(); out != 0 {
		t.Errorf("pool leak: %d records outstanding after quiescence", out)
	}
}

// idleFaults is a fault model whose hooks are armed but never fire:
// every message is delivered, no node is ever down. It pins the cost of
// having the fault plumbing consulted on the hot path.
type idleFaults struct{}

func (idleFaults) NodeDown(int) bool { return false }
func (idleFaults) MessageVerdict(int, int, int64) (Verdict, sim.Duration) {
	return VerdictDeliver, 0
}

// TestFaultArmedPutNoAlloc pins the armed fault hooks on the one-sided
// hot path: with a model installed, every Put pays the per-message
// verdict and down checks — and must still run at zero allocations.
func TestFaultArmedPutNoAlloc(t *testing.T) {
	e := sim.New(1)
	c := NewCluster(e, topo.Pyramid(), QDRInfiniBand())
	c.SetFaultModel(idleFaults{})
	src := c.MustEndpoint(0)
	dst := c.MustEndpoint(1)
	putPer, getPer := -1.0, -1.0
	e.Go("p", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			src.Put(p, dst, 8, nil)
			blockingGet(p, src, dst)
		}
		putPer = testing.AllocsPerRun(200, func() { src.Put(p, dst, 8, nil) })
		getPer = testing.AllocsPerRun(200, func() { blockingGet(p, src, dst) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if putPer != 0 {
		t.Errorf("fault-armed Put allocates %v allocs/op, want 0", putPer)
	}
	if getPer != 0 {
		t.Errorf("fault-armed Get allocates %v allocs/op, want 0", getPer)
	}
	if out := c.PoolStats().Outstanding(); out != 0 {
		t.Errorf("pool leak: %d records outstanding after quiescence", out)
	}
}

// TestSharedLinkTransferNoAlloc pins the blocking flow path that
// Compute and MemTouch charge through: a warm Net.Transfer recycles its
// flow record and re-arms the Net's one settling timer.
func TestSharedLinkTransferNoAlloc(t *testing.T) {
	e := sim.New(1)
	n := NewNet(e)
	l := NewLink("l", 1e9)
	per := -1.0
	e.Go("p", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			n.Transfer(p, 1000, 0, l)
		}
		per = testing.AllocsPerRun(200, func() { n.Transfer(p, 1000, 0, l) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Errorf("Net.Transfer allocates %v allocs/op, want 0", per)
	}
	if out := n.PoolStats().Outstanding(); out != 0 {
		t.Errorf("pool leak: %d records outstanding after quiescence", out)
	}
}
