package sim

import "math/bits"

// event is one pending booking: act runs at (at, seq). A process wake is
// the *wake form of its Proc (the dispatch loop resumes the process
// instead of calling Run), an After closure is a funcAction, and every
// other booking is the caller's own Action. At 32 bytes an event is what
// the lanes and the heap copy on every move.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among simultaneous events
	act Action
}

// wake is the Action form of a process wake. Its Run is never called:
// handoff recognises the type and resumes the process instead.
type wake Proc

func (*wake) Run() {}

// funcAction is the Action form of an After closure; converting a func
// value to an interface does not allocate.
type funcAction func()

func (f funcAction) Run() { f() }

// before orders events by time, then FIFO by sequence number.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is an index-based 4-ary min-heap storing events by value: the
// backing array is the only allocation, so a warm heap schedules and pops
// without touching the allocator, and the shallower tree (depth log4 n)
// halves the sift work of the binary container/heap version it replaced.
type eventHeap struct {
	a []event
}

// push inserts ev, sifting it up from the last slot.
func (h *eventHeap) push(ev event) {
	h.a = append(h.a, ev)
	a := h.a
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !a[i].before(&a[parent]) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

// pop removes and returns the earliest event, clearing the vacated slot
// so the backing array retains no *Proc or closure references.
func (h *eventHeap) pop() event {
	a := h.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = event{}
	h.a = a[:n]
	if n > 1 {
		h.siftDown()
	}
	return top
}

func (h *eventHeap) siftDown() {
	a := h.a
	n := len(a)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if a[c].before(&a[min]) {
				min = c
			}
		}
		if !a[min].before(&a[i]) {
			return
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
}

// nLanes is the number of per-delay FIFO lanes beside the heap; the
// queue's busy mask is a uint8, one bit per lane.
const nLanes = 8

// lane is a FIFO of events that were all booked with the same delay d
// from the clock at booking time. The clock never moves backwards and
// sequence numbers only grow, so appending keeps a lane sorted by
// (at, seq) and its head is its earliest event. It is a ring over a
// power-of-two backing array reused across claims.
type lane struct {
	d    Duration
	buf  []event
	head int
	n    int
}

func (l *lane) push(ev event) {
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = ev
	l.n++
}

// pop removes and returns the head event, clearing its slot so the ring
// retains no *Proc or closure references.
func (l *lane) pop() event {
	ev := l.buf[l.head]
	l.buf[l.head] = event{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return ev
}

// grow doubles the ring (minimum 16 slots), unwrapping the live span to
// the front of the new array.
func (l *lane) grow() {
	size := 16
	if len(l.buf) > 0 {
		size = 2 * len(l.buf)
	}
	buf := make([]event, size)
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf = buf
	l.head = 0
}

// queue holds the pending events: nLanes per-delay FIFO lanes and a
// 4-ary heap for bookings whose delay finds neither a busy lane of its
// own nor a free one. busy has bit i set while lane i holds events, and
// both booking and popping visit only the set bits.
type queue struct {
	lanes [nLanes]lane
	busy  uint8
	heap  eventHeap
}

// push books ev, which is due d = ev.at-now after the current time now:
// into the busy lane keyed d, else into a free lane it claims for d,
// else onto the heap.
func (q *queue) push(ev event, now Time) {
	d := ev.at - now
	for m := q.busy; m != 0; m &= m - 1 {
		if l := &q.lanes[bits.TrailingZeros8(m)]; l.d == d {
			l.push(ev)
			return
		}
	}
	if free := ^q.busy; free != 0 {
		i := bits.TrailingZeros8(free)
		q.busy |= 1 << i
		l := &q.lanes[i]
		l.d = d
		l.push(ev)
		return
	}
	q.heap.push(ev)
}

// min returns the earliest pending event and its source (a lane index,
// or -1 for the heap), or nil when none is pending.
func (q *queue) min() (*event, int) {
	var best *event
	src := -1
	if len(q.heap.a) > 0 {
		best = &q.heap.a[0]
	}
	for m := q.busy; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		l := &q.lanes[i]
		if h := &l.buf[l.head]; best == nil || h.before(best) {
			best, src = h, i
		}
	}
	return best, src
}

// pop removes and returns the event min reported at src.
func (q *queue) pop(src int) event {
	if src < 0 {
		return q.heap.pop()
	}
	l := &q.lanes[src]
	ev := l.pop()
	if l.n == 0 {
		q.busy &^= 1 << src
	}
	return ev
}
