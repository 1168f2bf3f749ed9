package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestAdvanceOrdering(t *testing.T) {
	e := New(1)
	var order []string
	e.Go("a", func(p *Proc) {
		p.Advance(30)
		order = append(order, fmt.Sprintf("a@%d", p.Now()))
	})
	e.Go("b", func(p *Proc) {
		p.Advance(10)
		order = append(order, fmt.Sprintf("b@%d", p.Now()))
		p.Advance(40)
		order = append(order, fmt.Sprintf("b@%d", p.Now()))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b@10", "a@30", "b@50"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	if e.Now() != 50 {
		t.Errorf("final time = %v, want 50", e.Now())
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	e := New(1)
	var order []string
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("p%d", i)
		e.Go(name, func(p *Proc) {
			p.Advance(100) // all wake at the same instant
			order = append(order, name)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if want := fmt.Sprintf("p%d", i); got != want {
			t.Fatalf("order[%d] = %s, want %s (ties must be FIFO)", i, got, want)
		}
	}
}

func TestNegativeAdvanceIsZero(t *testing.T) {
	e := New(1)
	e.Go("p", func(p *Proc) {
		p.Advance(-5)
		if p.Now() != 0 {
			t.Errorf("time after Advance(-5) = %v, want 0", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := New(1)
	var childTime Time = -1
	e.Go("parent", func(p *Proc) {
		p.Advance(25)
		p.Go("child", func(c *Proc) {
			childTime = c.Now()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 25 {
		t.Errorf("child started at %v, want 25", childTime)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := New(1)
	var q WaitQueue
	e.Go("stuck", func(p *Proc) {
		q.Wait(p, "never-signaled")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "stuck") || !strings.Contains(err.Error(), "never-signaled") {
		t.Errorf("deadlock error should name the process and reason: %v", err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := New(1)
	e.Go("bomb", func(p *Proc) {
		p.Advance(1)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate from Run")
		}
		s := fmt.Sprint(r)
		if !strings.Contains(s, "bomb") || !strings.Contains(s, "boom") {
			t.Errorf("panic message should identify process and value: %s", s)
		}
	}()
	e.Run()
}

func TestAfterCallback(t *testing.T) {
	e := New(1)
	var at Time = -1
	e.Go("p", func(p *Proc) {
		e.After(42, func() { at = e.Now() })
		p.Advance(100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 42 {
		t.Errorf("callback ran at %v, want 42", at)
	}
}

func TestYieldFairness(t *testing.T) {
	e := New(1)
	var order []string
	e.Go("a", func(p *Proc) {
		p.Yield()
		order = append(order, "a")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[b a]" {
		t.Errorf("Yield should let b run first: got %v", order)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		e := New(7)
		var trace []string
		var srv Server
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("w%d", i)
			e.Go(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Advance(Duration(e.Rand().Intn(100)))
					trace = append(trace, fmt.Sprintf("%s@%d", name, p.Now()))
					srv.Delay(p, 5)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("identical seeds must replay identically:\n%v\n%v", a, b)
	}
}

func TestClockMonotonicUnderRandomWorkload(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		e := New(seed)
		ok := true
		for i := 0; i < 4; i++ {
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				last := p.Now()
				for s := 0; s < int(steps%32); s++ {
					p.Advance(Duration(e.Rand().Intn(50)))
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeFormatting(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.5us"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTransferTime(t *testing.T) {
	if d := TransferTime(1000, 1000); d != Second {
		t.Errorf("1000B at 1000B/s = %v, want 1s", d)
	}
	if d := TransferTime(0, 1e9); d != 0 {
		t.Errorf("zero bytes should take zero time, got %v", d)
	}
	if d := TransferTime(100, 0); d != 0 {
		t.Errorf("zero bandwidth means free path, got %v", d)
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	f := func(ms uint16) bool {
		d := FromSeconds(float64(ms) / 1000)
		return d == Duration(ms)*Millisecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
