package mpi

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// chaosCfg is cfg plus a fault schedule: 4 ranks on 2 nodes so rank r
// and rank r^2 always talk across the network.
func chaosCfg(sched *fault.Schedule) Config {
	c := cfg(4, 2)
	c.Faults = sched
	return c
}

// TestEagerRecvRecoversFromDropWindow: every cross-node message inside
// the window is dropped. Each post is eager (the sender waits only for
// local completion), so the receiver's NACK pull must recover the
// payload once the window closes.
func TestEagerRecvRecoversFromDropWindow(t *testing.T) {
	sched := &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpDrop, At: 0, Until: 0.002, Prob: 1, Src: -1, Dst: -1},
	}}
	gotAt := make([]sim.Time, 4)
	_, err := Run(chaosCfg(sched), func(c *Comm) {
		peer := c.Rank ^ 2 // cross-node pairing
		got := c.sendrecv(peer, 1, []byte{byte(10 + c.Rank)}, peer)
		if len(got) != 1 || got[0] != byte(10+peer) {
			t.Errorf("rank %d: payload = %v, want [%d]", c.Rank, got, 10+peer)
		}
		gotAt[c.Rank] = c.P.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, at := range gotAt {
		if at < sim.Time(2*sim.Millisecond) {
			t.Errorf("rank %d: exchange completed at %v, inside the total-drop window", r, at)
		}
	}
}

// TestCrashSurfacesTypedErrors: after node 1 crashes, receives from it
// diagnose the crash, an exchange with it panics with that typed error,
// and barriers and reductions return a typed error instead of hanging.
func TestCrashSurfacesTypedErrors(t *testing.T) {
	sched := &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpCrash, At: 0.001, Node: 1, Src: -1, Dst: -1},
	}}
	_, err := Run(chaosCfg(sched), func(c *Comm) {
		c.P.Advance(2 * sim.Millisecond)
		if c.w.Cluster.NodeDown(c.Place.Node) {
			return // ranks on the dead node stop participating
		}
		_, rerr := c.recv(3)
		if !errors.Is(rerr, fault.ErrNodeDown) {
			t.Errorf("rank %d recv from dead node: %v, want ErrNodeDown", c.Rank, rerr)
		}
		var ce *fault.CommError
		if !errors.As(rerr, &ce) || ce.Op != "recv" || ce.Dst != 3 {
			t.Errorf("recv error = %#v, want CommError{Op: recv, Dst: 3}", rerr)
		}
		if xerr := panicked(func() { c.sendrecv(2, 1, []byte{1}, 2) }); !errors.Is(xerr, fault.ErrNodeDown) {
			t.Errorf("rank %d exchange with dead node: %v, want ErrNodeDown", c.Rank, xerr)
		}
		if berr := c.barrierErr(); !errors.Is(berr, fault.ErrNodeDown) {
			t.Errorf("rank %d barrier with dead ranks: %v, want ErrNodeDown", c.Rank, berr)
		}
		if _, aerr := c.collectiveErr(1.0, func([]any) any { return nil }); !errors.Is(aerr, fault.ErrNodeDown) {
			t.Errorf("rank %d allreduce with dead ranks: %v, want ErrNodeDown", c.Rank, aerr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// panicked runs fn and returns the error it panicked with, if any.
func panicked(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = r.(error)
		}
	}()
	fn()
	return nil
}

// TestChaosDeterministicAndCorrect: a probabilistic chaos schedule must
// give byte-identical payloads to a fault-free run and an identical
// virtual timeline across repeats of the same (seed, schedule).
func TestChaosDeterministicAndCorrect(t *testing.T) {
	mk := func(faults bool) *fault.Schedule {
		if !faults {
			return nil
		}
		return &fault.Schedule{Actions: []fault.Action{
			{Op: fault.OpDrop, At: 0, Until: 0.01, Prob: 0.35, Src: -1, Dst: -1},
			{Op: fault.OpDuplicate, At: 0, Until: 0.01, Prob: 0.25, Src: -1, Dst: -1},
		}}
	}
	run := func(faults bool) (sim.Time, []byte) {
		got := make([]byte, 8)
		var end sim.Time
		_, err := Run(chaosCfg(mk(faults)), func(c *Comm) {
			peer := c.Rank ^ 2 // cross-node pairing
			for i := 0; i < 2; i++ {
				in := c.sendrecv(peer, 1, []byte{byte(10*c.Rank + i)}, peer)
				got[2*c.Rank+i] = in[0]
			}
			c.Barrier()
			if t := c.P.Now(); t > end {
				end = t
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end, got
	}
	endA, gotA := run(true)
	endB, gotB := run(true)
	if endA != endB {
		t.Errorf("same seed+schedule diverged: %v vs %v", endA, endB)
	}
	for i := range gotA {
		if gotA[i] != gotB[i] {
			t.Errorf("payload %d diverged across identical runs: %d vs %d", i, gotA[i], gotB[i])
		}
	}
	_, clean := run(false)
	for i := range clean {
		if gotA[i] != clean[i] {
			t.Errorf("payload %d under chaos = %d, fault-free = %d", i, gotA[i], clean[i])
		}
	}
}
