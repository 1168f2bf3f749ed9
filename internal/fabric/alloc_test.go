package fabric

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// The allocation-regression tests pin the untraced one-sided hot path
// at zero allocations per operation: operation records, flows and
// delivery legs all come from free lists, and the blocking wrappers
// release their records internally. testing.AllocsPerRun runs inside
// the simulated process — the engine is otherwise idle, so any count it
// sees is the operation's own.

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
			src.Get(p, dst, 8, nil)
		}
		per = testing.AllocsPerRun(200, func() { src.Get(p, dst, 8, nil) })
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
			src.Get(p, dst, 8, nil)
		}
		putPer = testing.AllocsPerRun(200, func() { src.Put(p, dst, 8, nil) })
		getPer = testing.AllocsPerRun(200, func() { src.Get(p, dst, 8, nil) })
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

func TestSharedLinkTransferNoAlloc(t *testing.T) {
	e := sim.New(1)
	l := sim.NewSharedLink(e, 1e9)
	per := -1.0
	e.Go("p", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			l.Transfer(p, 1000)
		}
		per = testing.AllocsPerRun(200, func() { l.Transfer(p, 1000) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Errorf("SharedLink.Transfer allocates %v allocs/op, want 0", per)
	}
	if out := l.PoolStats().Outstanding(); out != 0 {
		t.Errorf("pool leak: %d records outstanding after quiescence", out)
	}
}
