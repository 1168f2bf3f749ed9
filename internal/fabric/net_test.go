package fabric

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestFlowSingleLink(t *testing.T) {
	e := sim.New(1)
	n := NewNet(e)
	l := NewLink("l", 1000)
	var done sim.Time
	e.Go("p", func(p *sim.Proc) {
		n.Transfer(p, 500, 0, l)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(500 * sim.Millisecond); abs(done-want) > sim.Millisecond {
		t.Errorf("done at %v, want ~%v", done, want)
	}
}

func TestFlowBottleneckIsMinShare(t *testing.T) {
	e := sim.New(1)
	n := NewNet(e)
	fast := NewLink("fast", 1e6)
	slow := NewLink("slow", 1000)
	var done sim.Time
	e.Go("p", func(p *sim.Proc) {
		n.Transfer(p, 1000, 0, fast, slow)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(sim.Second); abs(done-want) > sim.Millisecond {
		t.Errorf("bottleneck transfer done at %v, want ~%v", done, want)
	}
}

func TestFlowCapClips(t *testing.T) {
	e := sim.New(1)
	n := NewNet(e)
	l := NewLink("l", 1e9)
	var done sim.Time
	e.Go("p", func(p *sim.Proc) {
		n.Transfer(p, 1000, 1000, l) // capped to 1000 B/s
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(sim.Second); abs(done-want) > sim.Millisecond {
		t.Errorf("capped transfer done at %v, want ~%v", done, want)
	}
}

func TestSharedLinkSplitsBandwidth(t *testing.T) {
	e := sim.New(1)
	n := NewNet(e)
	l := NewLink("l", 1000)
	var worst sim.Time
	for i := 0; i < 4; i++ {
		e.Go(fmt.Sprintf("f%d", i), func(p *sim.Proc) {
			n.Transfer(p, 250, 0, l)
			if p.Now() > worst {
				worst = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(sim.Second); abs(worst-want) > 2*sim.Millisecond {
		t.Errorf("4×250B on 1000B/s finished at %v, want ~%v", worst, want)
	}
}

func TestDisjointLinksDoNotInterfere(t *testing.T) {
	e := sim.New(1)
	n := NewNet(e)
	a := NewLink("a", 1000)
	b := NewLink("b", 1000)
	var doneA, doneB sim.Time
	e.Go("fa", func(p *sim.Proc) { n.Transfer(p, 1000, 0, a); doneA = p.Now() })
	e.Go("fb", func(p *sim.Proc) { n.Transfer(p, 1000, 0, b); doneB = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(sim.Second)
	if abs(doneA-want) > sim.Millisecond || abs(doneB-want) > sim.Millisecond {
		t.Errorf("independent flows at %v, %v; want ~%v each", doneA, doneB, want)
	}
}

// actionFunc adapts a closure to a flow's completion action.
type actionFunc func()

func (f actionFunc) Run() { f() }

func TestZeroSizeCompletesImmediately(t *testing.T) {
	e := sim.New(1)
	n := NewNet(e)
	l := NewLink("l", 10)
	ran := false
	n.StartAction(0, 0, actionFunc(func() { ran = true }), l)
	if !ran {
		t.Error("a zero-size flow must run its completion action immediately")
	}
	if l.Active() != 0 || n.Active() != 0 {
		t.Errorf("link active = %d, net active = %d after no-op flow", l.Active(), n.Active())
	}
}

// TestOnCompleteChainsNewFlow starts a second flow from the first one's
// completion action, in engine context: the two run back to back.
func TestOnCompleteChainsNewFlow(t *testing.T) {
	e := sim.New(1)
	n := NewNet(e)
	l := NewLink("l", 1000)
	var secondDone sim.Time
	e.Go("p", func(p *sim.Proc) {
		var done sim.Event
		n.StartAction(500, 0, actionFunc(func() {
			n.StartAction(500, 0, actionFunc(done.Fire), l)
		}), l)
		done.Wait(p)
		secondDone = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(sim.Second); abs(secondDone-want) > 2*sim.Millisecond {
		t.Errorf("chained flows done at %v, want ~%v", secondDone, want)
	}
	if out := n.PoolStats().Outstanding(); out != 0 {
		t.Errorf("pool leak: %d records outstanding after quiescence", out)
	}
}

// TestStartActionOverlapsCaller checks that StartAction does not block:
// the caller works on while the flow drains, then waits on the event
// the completion action fires.
func TestStartActionOverlapsCaller(t *testing.T) {
	e := sim.New(1)
	n := NewNet(e)
	l := NewLink("l", 1000)
	var done sim.Time
	e.Go("p", func(p *sim.Proc) {
		var drained sim.Event
		n.StartAction(500, 0, actionFunc(drained.Fire), l)
		if drained.Fired() {
			t.Error("transfer should not be instantly done")
		}
		p.Advance(100 * sim.Millisecond) // overlap with other work
		drained.Wait(p)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(500 * sim.Millisecond); abs(done-want) > 2*sim.Millisecond {
		t.Errorf("overlapped transfer ended at %v, want ~%v", done, want)
	}
}

func TestSharedLinkLateArrival(t *testing.T) {
	e := sim.New(1)
	n := NewNet(e)
	l := NewLink("l", 1000)
	var doneA, doneB sim.Time
	// A: 1000 B from t=0. B: 500 B from t=0.5 s. A runs alone until
	// 0.5 s (500 B done), then each moves 500 B at 500 B/s: both end at
	// 1.5 s.
	e.Go("a", func(p *sim.Proc) { n.Transfer(p, 1000, 0, l); doneA = p.Now() })
	e.Go("b", func(p *sim.Proc) {
		p.Advance(500 * sim.Millisecond)
		n.Transfer(p, 500, 0, l)
		doneB = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(1500 * sim.Millisecond)
	if abs(doneA-want) > 3*sim.Millisecond {
		t.Errorf("A finished at %v, want ~%v", doneA, want)
	}
	if abs(doneB-want) > 3*sim.Millisecond {
		t.Errorf("B finished at %v, want ~%v", doneB, want)
	}
}

// TestSharedLinkZeroCapacityIsFree checks that a link with Capacity <= 0
// is infinitely fast: even 1 GiB completes within the 1 ns progress
// floor of a settling pass.
func TestSharedLinkZeroCapacityIsFree(t *testing.T) {
	for _, capacity := range []float64{0, -1} {
		e := sim.New(1)
		n := NewNet(e)
		l := NewLink("l", capacity)
		var done sim.Time = -1
		e.Go("p", func(p *sim.Proc) {
			n.Transfer(p, 1<<30, 0, l)
			done = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if done < 0 || done > 1 {
			t.Errorf("capacity %v: 1 GiB done at %v, want within 1ns", capacity, done)
		}
	}
}

// TestSharedLinkConservation checks processor sharing conserves work:
// flows started together on one link finish no sooner than their total
// bytes at full capacity, and no later than that plus the settling
// passes' 2^-10 batching pad.
func TestSharedLinkConservation(t *testing.T) {
	f := func(seed int64, sizes [4]uint16) bool {
		e := sim.New(seed)
		n := NewNet(e)
		l := NewLink("l", 1e6)
		var total int64
		var finish sim.Time
		for i, sz := range sizes {
			size := int64(sz) + 1
			total += size
			e.Go(fmt.Sprintf("f%d", i), func(p *sim.Proc) {
				n.Transfer(p, size, 0, l)
				if p.Now() > finish {
					finish = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		// Allow a few ns of event rounding per flow.
		lower := sim.TransferTime(total, 1e6)
		slack := sim.Time(len(sizes)) * 2
		return finish >= lower-slack && finish <= lower+lower>>9+slack
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSharedLinkManyFlowsApproximation(t *testing.T) {
	// n equal flows of size s on capacity c must all complete near n*s/c.
	for _, flows := range []int{2, 8, 32} {
		e := sim.New(1)
		n := NewNet(e)
		l := NewLink("l", 1e9)
		size := int64(1 << 20)
		var worst sim.Time
		for i := 0; i < flows; i++ {
			e.Go(fmt.Sprintf("f%d", i), func(p *sim.Proc) {
				n.Transfer(p, size, 0, l)
				if p.Now() > worst {
					worst = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := sim.TransferTime(int64(flows)*size, 1e9)
		if abs(worst-want) > want/100 {
			t.Errorf("%d flows: makespan %v, want ~%v", flows, worst, want)
		}
	}
}

func TestLinkAccountingBalances(t *testing.T) {
	// Property: after any workload completes, every link has zero active
	// flows and the makespan is at least total/capacity for a single link.
	f := func(seed int64, sizes [5]uint16) bool {
		e := sim.New(seed)
		n := NewNet(e)
		l := NewLink("l", 1e6)
		var total int64
		var worst sim.Time
		for i, sz := range sizes {
			size := int64(sz) + 1
			total += size
			e.Go(fmt.Sprintf("f%d", i), func(p *sim.Proc) {
				p.Advance(sim.Duration(e.Rand().Intn(1000)))
				n.Transfer(p, size, 0, l)
				if p.Now() > worst {
					worst = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if l.Active() != 0 || n.Active() != 0 {
			return false
		}
		return worst >= sim.TransferTime(total, 1e6)-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(t sim.Time) sim.Time {
	if t < 0 {
		return -t
	}
	return t
}
