package group

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/upc"
)

// TestGroupSurvivesMemberCrash: a spanning group loses its node-1 members
// mid-run. The survivors' barrier must release on the live members alone.
func TestGroupSurvivesMemberCrash(t *testing.T) {
	c := cfg(8, 4)
	c.Faults = &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpCrash, At: 0.001, Node: 1, Src: -1, Dst: -1},
	}}
	passed := make([]int, 8)
	_, err := upc.Run(c, func(th *upc.Thread) {
		g, gerr := New(th, []int{0, 1, 2, 3, 4, 5, 6, 7})
		if gerr != nil {
			t.Error(gerr)
			return
		}
		g.Barrier()
		th.P.Advance(2 * sim.Millisecond)
		if th.Failed() {
			th.Retire()
			return
		}
		for i := 0; i < 2; i++ {
			if berr := g.BarrierErr(); berr != nil {
				t.Errorf("thread %d survivor barrier: %v", th.ID, berr)
				return
			}
			passed[th.ID]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 8; id++ {
		want := 0
		if id < 4 {
			want = 2
		}
		if passed[id] != want {
			t.Errorf("thread %d passed %d post-crash barriers, want %d", id, passed[id], want)
		}
	}
}

// TestGroupBarrierErrTimesOut: a live member that simply never arrives
// exhausts the deadline ladder with a typed timeout instead of hanging.
func TestGroupBarrierErrTimesOut(t *testing.T) {
	c := cfg(4, 2)
	c.Faults = &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpDrop, At: 30, Prob: 0.5, Src: -1, Dst: -1}, // arms faults, never active
	}}
	var barErr error
	_, err := upc.Run(c, func(th *upc.Thread) {
		if th.ID > 1 {
			return
		}
		g, gerr := New(th, []int{0, 1})
		if gerr != nil {
			t.Error(gerr)
			return
		}
		if th.ID == 1 {
			th.P.Advance(20 * sim.Second) // never shows up
			return
		}
		barErr = g.BarrierErr()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(barErr, fault.ErrTimeout) {
		t.Errorf("group barrier with absent member: %v, want ErrTimeout", barErr)
	}
}
