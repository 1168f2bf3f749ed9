package sim

import (
	"fmt"
	"testing"
)

func TestServerFCFSPipelining(t *testing.T) {
	e := New(1)
	var done []Time
	var srv Server
	// Three requests arriving at t=0 with occupancies 10, 20, 5 complete at
	// 10, 30, 35: strict arrival order, back-to-back.
	for i, d := range []Duration{10, 20, 5} {
		dd := d
		e.Go(fmt.Sprintf("r%d", i), func(p *Proc) {
			srv.Delay(p, dd)
			done = append(done, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 30, 35}
	if fmt.Sprint(done) != fmt.Sprint(want) {
		t.Errorf("completions = %v, want %v", done, want)
	}
}

func TestServerIdleGap(t *testing.T) {
	e := New(1)
	var srv Server
	var second Time
	e.Go("a", func(p *Proc) {
		srv.Delay(p, 10) // completes at 10
		p.Advance(90)    // now 100; server idle 10..100
		srv.Delay(p, 10) // must complete at 110, not 20+10
		second = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if second != 110 {
		t.Errorf("second completion = %v, want 110", second)
	}
}

func TestServerScheduleWithoutBlocking(t *testing.T) {
	var srv Server
	if got := srv.Schedule(100, 50); got != 150 {
		t.Errorf("Schedule(100,50) = %v, want 150", got)
	}
	if got := srv.Schedule(120, 10); got != 160 {
		t.Errorf("pipelined Schedule = %v, want 160", got)
	}
}
