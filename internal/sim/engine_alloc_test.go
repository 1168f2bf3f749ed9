package sim

import (
	"fmt"
	"slices"
	"testing"
)

// The allocation-regression tests pin the untraced hot path at zero
// allocations per operation: the event lanes and heap store events by
// value, the WaitQueue is a reusable ring, and a process resuming itself
// never leaves its coroutine, so a warm engine must schedule, park and
// wake without the allocator. testing.AllocsPerRun runs inside the simulated
// process — the engine is otherwise idle, so any count it sees is the
// operation's own.

func TestAdvanceNoAlloc(t *testing.T) {
	e := New(1)
	per := -1.0
	e.Go("adv", func(p *Proc) {
		for i := 0; i < 64; i++ {
			p.Advance(1) // warm the event heap
		}
		per = testing.AllocsPerRun(200, func() { p.Advance(1) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Errorf("Advance allocates %v allocs/op, want 0", per)
	}
}

func TestYieldNoAlloc(t *testing.T) {
	e := New(1)
	per := -1.0
	e.Go("yield", func(p *Proc) {
		for i := 0; i < 64; i++ {
			p.Yield()
		}
		per = testing.AllocsPerRun(200, func() { p.Yield() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Errorf("Yield allocates %v allocs/op, want 0", per)
	}
}

func TestServerDelayNoAlloc(t *testing.T) {
	e := New(1)
	var srv Server
	per := -1.0
	e.Go("delay", func(p *Proc) {
		for i := 0; i < 64; i++ {
			srv.Delay(p, 1)
		}
		per = testing.AllocsPerRun(200, func() { srv.Delay(p, 1) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Errorf("Server.Delay allocates %v allocs/op, want 0", per)
	}
}

type nopAction struct{}

func (*nopAction) Run() {}

// TestHeapFallbackNoAlloc books more distinct delays at once than there
// are lanes, so every operation also pushes and pops through the heap
// fallback; a warm engine must still not allocate.
func TestHeapFallbackNoAlloc(t *testing.T) {
	e := New(1)
	var nop nopAction
	per := -1.0
	spilled := false
	e.Go("spill", func(p *Proc) {
		op := func() {
			for d := Duration(1); d <= 2*nLanes; d++ {
				e.AfterAction(d, &nop)
			}
			spilled = spilled || len(e.events.heap.a) > 0
			p.Advance(2*nLanes + 1)
		}
		for i := 0; i < 64; i++ {
			op()
		}
		per = testing.AllocsPerRun(200, op)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !spilled {
		t.Error("no booking overflowed the lanes onto the heap")
	}
	if per != 0 {
		t.Errorf("booking past the lanes allocates %v allocs/op, want 0", per)
	}
}

// TestRendezvousReleaseAllocs pins a barrier generation at zero
// allocations: Release re-arms the previous generation's fired Event,
// keeping its wait ring, and books the fire as an Action, with no
// method value.
func TestRendezvousReleaseAllocs(t *testing.T) {
	e := New(1)
	r := NewRendezvous(1, nil)
	per := -1.0
	e.Go("party", func(p *Proc) {
		op := func() {
			ev := r.Arrive(0)
			if r.Complete() {
				r.Release(e, 1)
			}
			ev.Wait(p)
		}
		for i := 0; i < 64; i++ {
			op()
		}
		per = testing.AllocsPerRun(200, op)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Errorf("a rendezvous generation allocates %v allocs/op, want 0", per)
	}
}

// TestRendezvousKeepsPendingEvent: a generation released while the one
// before it has not fired yet gets a fresh event, and every event fires
// exactly once, at its own release time.
func TestRendezvousKeepsPendingEvent(t *testing.T) {
	e := New(1)
	r := NewRendezvous(1, nil)
	var evs []*Event
	var fired []Time
	e.Go("party", func(p *Proc) {
		for i := 0; i < 4; i++ {
			ev := r.Arrive(0)
			r.Release(e, Duration(10-i)) // later generations fire earlier
			evs = append(evs, ev)
		}
		for _, ev := range evs {
			ev.Wait(p)
			fired = append(fired, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, a := range evs {
		for _, b := range evs[i+1:] {
			if a == b {
				t.Fatalf("generation %d's pending event was reused", i)
			}
		}
	}
	if want := []Time{10, 10, 10, 10}; !slices.Equal(fired, want) {
		t.Errorf("waits returned at %v, want %v", fired, want)
	}
}

// TestWakeAllClearsSlots guards against the ring retaining *Proc
// pointers after the waiters are gone: a truncated-but-referencing
// backing array would keep every woken process (and everything it
// closes over) live for the queue's lifetime.
func TestWakeAllClearsSlots(t *testing.T) {
	e := New(1)
	var q WaitQueue
	const n = 5
	for i := 0; i < n; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) { q.Wait(p, "test") })
	}
	e.Go("waker", func(p *Proc) {
		p.Advance(1)
		if got := q.WakeAll(); got != n {
			t.Errorf("WakeAll woke %d, want %d", got, n)
		}
		for i, slot := range q.buf {
			if slot != nil {
				t.Errorf("slot %d still references a Proc after WakeAll", i)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWakeOneClearsSlot(t *testing.T) {
	e := New(1)
	var q WaitQueue
	e.Go("w", func(p *Proc) { q.Wait(p, "test") })
	e.Go("waker", func(p *Proc) {
		p.Advance(1)
		head := q.head
		q.WakeOne()
		if q.buf[head] != nil {
			t.Error("WakeOne left a Proc reference in the vacated slot")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitQueueFIFOAcrossWrap drives the ring through several
// grow/wrap cycles and checks that wake order always matches wait
// order.
func TestWaitQueueFIFOAcrossWrap(t *testing.T) {
	e := New(1)
	var q WaitQueue
	var order []int
	const n = 40
	for i := 0; i < n; i++ {
		id := i
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			// Stagger arrivals so waiters enqueue in id order while the
			// waker drains between batches, forcing head to wrap.
			p.Advance(Duration(id / 4))
			q.Wait(p, "test")
			order = append(order, id)
		})
	}
	e.Go("waker", func(p *Proc) {
		woken := 0
		for woken < n {
			p.Advance(1)
			if q.WakeOne() {
				woken++
			}
			if woken%7 == 0 {
				woken += q.WakeAll()
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("woke %d of %d waiters", len(order), n)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("wake order not FIFO: %v", order)
		}
	}
}

// TestSelfGrantSkipsChannel locks in the in-place fast path: a process
// that dispatches its own wake event must resume via the selfGrant flag,
// without yielding to the hub.
func TestSelfGrantSkipsChannel(t *testing.T) {
	e := New(1)
	e.Go("solo", func(p *Proc) {
		yield, yields := p.yield, 0
		p.yield = func(v struct{}) bool { yields++; return yield(v) }
		p.Advance(1)
		p.Yield()
		if yields != 0 {
			t.Errorf("self-resume yielded to the hub %d times", yields)
		}
		if p.selfGrant {
			t.Error("selfGrant not consumed by park")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
