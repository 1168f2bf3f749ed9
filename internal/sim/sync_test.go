package sim

import (
	"fmt"
	"testing"
)

func TestBarrierReleasesTogether(t *testing.T) {
	e := New(1)
	b := NewBarrier(3)
	var releases []Time
	for i, d := range []Duration{5, 20, 50} {
		dd := d
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Advance(dd)
			b.Wait(p)
			releases = append(releases, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range releases {
		if r != 50 {
			t.Errorf("release at %v, want 50 (latest arrival)", r)
		}
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	e := New(1)
	b := NewBarrier(2)
	counts := [2]int{}
	for i := 0; i < 2; i++ {
		idx := i
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for round := 0; round < 5; round++ {
				p.Advance(Duration(1 + idx*3))
				b.Wait(p)
				counts[idx]++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if counts[0] != 5 || counts[1] != 5 {
		t.Errorf("rounds completed = %v, want [5 5]", counts)
	}
}

func TestEventWaitBeforeAndAfterFire(t *testing.T) {
	e := New(1)
	var ev Event
	var wokeAt Time = -1
	e.Go("waiter", func(p *Proc) {
		ev.Wait(p)
		wokeAt = p.Now()
		ev.Wait(p) // already fired: must not block
		ev.Fire()  // double fire: no-op
	})
	e.Go("firer", func(p *Proc) {
		p.Advance(33)
		ev.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 33 {
		t.Errorf("waiter woke at %v, want 33", wokeAt)
	}
	if !ev.Fired() {
		t.Error("event should report fired")
	}
}
