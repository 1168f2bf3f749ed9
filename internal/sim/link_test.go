// The engine's processes share bandwidth through fabric.Net, the one
// processor-sharing model. These tests pin that a process blocked in
// Net.Transfer wakes at the fluid-model completion time. External test
// package: an in-package test could not import fabric (fabric imports sim).
package sim_test

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func absTime(d sim.Time) sim.Time {
	if d < 0 {
		return -d
	}
	return d
}

func TestSharedLinkSingleFlow(t *testing.T) {
	e := sim.New(1)
	n := fabric.NewNet(e)
	l := fabric.NewLink("l", 1000) // 1000 B/s
	var done sim.Time
	e.Go("p", func(p *sim.Proc) {
		n.Transfer(p, 500, 0, l)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(500 * sim.Millisecond); absTime(done-want) > sim.Millisecond {
		t.Errorf("500B at 1000B/s finished at %v, want ~%v", done, want)
	}
}

func TestSharedLinkFairSharing(t *testing.T) {
	e := sim.New(1)
	n := fabric.NewNet(e)
	l := fabric.NewLink("l", 1000)
	var doneA, doneB sim.Time
	// Two equal 500B flows starting together: each gets 500 B/s, both end
	// at ~1s (not 0.5s).
	e.Go("a", func(p *sim.Proc) { n.Transfer(p, 500, 0, l); doneA = p.Now() })
	e.Go("b", func(p *sim.Proc) { n.Transfer(p, 500, 0, l); doneB = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(sim.Second)
	if absTime(doneA-want) > 2*sim.Millisecond || absTime(doneB-want) > 2*sim.Millisecond {
		t.Errorf("concurrent flows finished at %v, %v; want ~%v each", doneA, doneB, want)
	}
}
