package sim

// Barrier synchronizes a fixed population of n processes. It is reusable
// across generations.
type Barrier struct {
	n       int
	arrived int
	q       WaitQueue
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(n int) *Barrier { return &Barrier{n: n} }

// Wait blocks p until all n participants have arrived.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.q.WakeAll()
		return
	}
	b.q.Wait(p, "barrier")
}

// Event is a one-shot completion flag that any number of processes can
// wait on; the counterpart of a non-blocking operation handle.
type Event struct {
	fired bool
	q     WaitQueue
}

// Fire marks the event complete and wakes all waiters. Firing twice is a
// no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	ev.q.WakeAll()
}

// Fired reports whether the event has completed.
func (ev *Event) Fired() bool { return ev.fired }

// Reset re-arms a fired event so object pools can recycle the structure
// it is embedded in, keeping the wait-queue ring allocation across
// reuses. The caller must guarantee the previous operation fully
// completed: resetting with processes still parked is a pooling bug and
// panics.
func (ev *Event) Reset() {
	if ev.q.Len() != 0 {
		panic("sim: Event.Reset with parked waiters")
	}
	ev.fired = false
}

// Wait suspends p until the event fires. Returns immediately if already
// fired.
func (ev *Event) Wait(p *Proc) {
	if !ev.fired {
		ev.q.Wait(p, "event")
	}
}

// WaitTimeout suspends p until the event fires or d elapses, reporting
// whether the event fired. It is WaitQueue.WaitTimeout on the event's
// queue, so the timer belongs to this one call: on timeout p leaves the
// queue, and once the call has returned its timer no-ops even if a pool
// has since reset and recycled the event. The timer event stays pending
// until its time arrives, which can extend a run's final virtual time;
// callers on fault-free fast paths should use Wait.
//
// The fired and timed-out cases are distinguishable even when they
// coincide: whichever was scheduled first at that instant wins, which is
// deterministic under the engine's FIFO event order.
func (ev *Event) WaitTimeout(p *Proc, d Duration) bool {
	if !ev.fired {
		ev.q.WaitTimeout(p, "event-timeout", d)
	}
	return ev.fired
}

// Rendezvous is a reusable synchronization point of n parties, one
// Event per generation; every runtime's barriers and collectives are
// built on it. Without liveness a generation is complete when all n
// parties arrived, and an arrival is a bare counter. With liveness it
// also records who arrived, and a generation is complete once every
// party still missing is dead; callers re-check when a party dies.
//
// Two events alternate between generations. Release re-arms the event
// released one generation back for the next once it has fired and its
// queue is empty; a party waits on the event Arrive returned before it
// arrives again, so every live party that held it has passed its wait.
// A fresh event is allocated only while that event is still pending.
type Rendezvous struct {
	n, arrived int
	seq        int64
	ev         *Event
	spare      *Event // the previous generation's event, nil before one
	live       func(party int) bool
	in         []bool // arrived this generation (liveness only)
}

// NewRendezvous returns a rendezvous of n parties; live, when non-nil,
// reports whether a party is alive.
func NewRendezvous(n int, live func(party int) bool) *Rendezvous {
	r := &Rendezvous{n: n, ev: &Event{}, live: live} //upcvet:poolalloc -- once per barrier or collective site
	if live != nil {
		r.in = make([]bool, n)
	}
	return r
}

// Arrive registers party at the open generation and returns its release
// event.
func (r *Rendezvous) Arrive(party int) *Event {
	r.arrived++
	if r.in != nil {
		r.in[party] = true
	}
	return r.ev
}

// Seq reports the open generation's sequence number.
func (r *Rendezvous) Seq() int64 { return r.seq }

// Complete reports whether the open generation may release; one that
// nobody has arrived at never may.
func (r *Rendezvous) Complete() bool {
	if r.in == nil {
		return r.arrived == r.n
	}
	if r.arrived == 0 {
		return false
	}
	for i, in := range r.in {
		if !in && r.live(i) {
			return false
		}
	}
	return true
}

// Release books the open generation's event to fire after cost and opens
// the next generation.
func (r *Rendezvous) Release(eng *Engine, cost Duration) {
	ev, next := r.ev, r.spare
	r.arrived = 0
	clear(r.in)
	r.seq++
	if next != nil && next.fired && next.q.Len() == 0 {
		next.fired = false
	} else {
		next = &Event{} //upcvet:poolalloc -- only while the previous generation's event is pending
	}
	r.ev, r.spare = next, ev
	eng.AfterAction(cost, (*fire)(ev))
}

// fire is the Action form of Event.Fire, as wake is of a process's
// resumption: the conversion books the event itself, with no method
// value to allocate.
type fire Event

func (f *fire) Run() { (*Event)(f).Fire() }
