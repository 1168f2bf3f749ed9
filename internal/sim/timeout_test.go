package sim

import "testing"

// TestWaitTimeoutFires checks the timeout path: the waiter resumes after
// exactly the timeout duration and reports failure.
func TestWaitTimeoutFires(t *testing.T) {
	e := New(1)
	ev := &Event{}
	var got bool
	var woke Time
	e.Go("w", func(p *Proc) {
		got = ev.WaitTimeout(p, 500)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("WaitTimeout reported fired on an event nobody fires")
	}
	if woke != 500 {
		t.Errorf("woke at %d, want 500", woke)
	}
	if ev.q.Len() != 0 {
		t.Errorf("event queue retains %d waiters after timeout", ev.q.Len())
	}
}

// TestWaitTimeoutEventWins checks the success path: a fire before the
// deadline resumes the waiter immediately and the pending timer no-ops.
func TestWaitTimeoutEventWins(t *testing.T) {
	e := New(1)
	ev := &Event{}
	var got bool
	var woke Time
	e.Go("w", func(p *Proc) {
		got = ev.WaitTimeout(p, 1000)
		woke = p.Now()
		// Keep running past the timer's deadline: a stale timeout firing
		// would wake a queue entry that no longer exists.
		p.Advance(5000)
	})
	e.After(200, ev.Fire)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("WaitTimeout reported timeout though the event fired first")
	}
	if woke != 200 {
		t.Errorf("woke at %d, want 200", woke)
	}
}

// TestWaitTimeoutAlreadyFired checks the no-wait fast path.
func TestWaitTimeoutAlreadyFired(t *testing.T) {
	e := New(1)
	ev := &Event{}
	ev.Fire()
	var got bool
	var woke Time
	e.Go("w", func(p *Proc) {
		got = ev.WaitTimeout(p, 1000)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !got || woke != 0 {
		t.Errorf("got=%v woke=%d, want immediate success at t=0", got, woke)
	}
}

// TestWaitTimeoutFiresExactlyOnce arms many timed waits on one event and
// counts resumptions: each waiter must resume exactly once, whether its
// own deadline or the fire came first.
func TestWaitTimeoutFiresExactlyOnce(t *testing.T) {
	e := New(1)
	ev := &Event{}
	resumed := make([]int, 8)
	for i := 0; i < 8; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			// Deadlines straddle the fire time (400): waiters 0..3 time out,
			// 4..7 see the event.
			ev.WaitTimeout(p, Duration(100*(i+1)))
			resumed[i]++
			p.Advance(10000) // outlive every pending timer
		})
	}
	e.After(401, ev.Fire)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, n := range resumed {
		if n != 1 {
			t.Errorf("waiter %d resumed %d times, want exactly 1", i, n)
		}
	}
}

// TestWaitQueueWaitTimeout checks both outcomes of a timed queue wait:
// the timer path resumes at the deadline and reports false; the wake
// path resumes at the wake and reports true, and the stale timer no-ops.
func TestWaitQueueWaitTimeout(t *testing.T) {
	e := New(1)
	var q WaitQueue
	var timedOut, wokeUp bool
	var tAt, wAt Time
	e.Go("timeout", func(p *Proc) {
		timedOut = !q.WaitTimeout(p, "test", 300)
		tAt = p.Now()
		p.Advance(10000)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut || tAt != 300 {
		t.Errorf("timeout path: timedOut=%v at %d, want true at 300", timedOut, tAt)
	}
	if q.Len() != 0 {
		t.Errorf("queue retains %d waiters after timeout", q.Len())
	}

	e = New(1)
	var q2 WaitQueue
	e.Go("woken", func(p *Proc) {
		wokeUp = q2.WaitTimeout(p, "test", 1000)
		wAt = p.Now()
		p.Advance(10000) // outlive the pending timer
	})
	e.After(200, func() { q2.WakeAll() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !wokeUp || wAt != 200 {
		t.Errorf("wake path: woke=%v at %d, want true at 200", wokeUp, wAt)
	}
}

// TestWaitQueueRemove checks membership, FIFO preservation and slot
// clearing of the cancellation path.
func TestWaitQueueRemove(t *testing.T) {
	e := New(1)
	var q WaitQueue
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			q.Wait(p, "test")
			order = append(order, i)
		})
	}
	e.After(10, func() {
		if q.Len() != 3 {
			t.Errorf("queue length %d, want 3", q.Len())
		}
		// Remove the middle waiter; it must be woken explicitly.
		victim := q.buf[(q.head+1)&(len(q.buf)-1)]
		if !q.Remove(victim) {
			t.Error("Remove missed a queued process")
		}
		if q.Remove(victim) {
			t.Error("Remove found an already-removed process")
		}
		q.WakeAll()
		victim.eng.unpark(victim)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// FIFO of the remaining waiters is preserved: 0 then 2, and the
	// removed waiter 1 wakes via its explicit unpark after the WakeAll
	// scheduled ahead of it.
	if len(order) != 3 || order[0] != 0 || order[1] != 2 || order[2] != 1 {
		t.Errorf("wake order %v, want [0 2 1]", order)
	}
	for i, p := range q.buf {
		if p != nil {
			t.Errorf("queue slot %d retains a process reference", i)
		}
	}
}

// TestWaitTimeoutTimerDiesWithItsWait checks that a timed wait's timer
// cannot reach a later wait on the same event: after a WaitTimeout that
// the fire ended early and a Reset (an object pool recycling the
// event), a plain Wait must last until the second fire, not end at the
// first wait's deadline.
func TestWaitTimeoutTimerDiesWithItsWait(t *testing.T) {
	e := New(1)
	ev := &Event{}
	var fired bool
	var firstAt, secondAt Time
	e.Go("w", func(p *Proc) {
		fired = ev.WaitTimeout(p, 10*Millisecond)
		firstAt = p.Now()
		ev.Reset()
		ev.Wait(p)
		secondAt = p.Now()
	})
	e.After(1*Millisecond, ev.Fire)
	e.After(20*Millisecond, ev.Fire)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || firstAt != Time(1*Millisecond) {
		t.Errorf("timed wait: fired=%v at %d, want true at %d", fired, firstAt, 1*Millisecond)
	}
	if secondAt != Time(20*Millisecond) {
		t.Errorf("plain wait after Reset returned at %d, want %d (the second fire)",
			secondAt, 20*Millisecond)
	}
}
