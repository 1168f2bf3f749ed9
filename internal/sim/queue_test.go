package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// booking is the place an event pops at: (at, seq), and for an
// end-of-instant timer, which shares (now, MaxUint64) with the other
// end-of-instant timers, its creation order.
type booking struct {
	at  Time
	seq uint64
	tie int
}

func (b booking) before(o booking) bool {
	if b.at != o.at {
		return b.at < o.at
	}
	if b.seq != o.seq {
		return b.seq < o.seq
	}
	return b.tie < o.tie
}

// ledger records every booking a script makes and every one that
// fires, in firing order. It runs on simulated-process goroutines, so
// it collects failures for the test goroutine to report.
type ledger struct {
	pending map[booking]bool
	fired   []booking
	errs    []string
}

func (l *ledger) fail(format string, args ...any) {
	l.errs = append(l.errs, fmt.Sprintf(format, args...))
}

func (l *ledger) book(b booking) {
	if l.pending[b] {
		l.fail("booking %v made twice", b)
	}
	l.pending[b] = true
}

func (l *ledger) fire(b booking, now Time) {
	if !l.pending[b] {
		l.fail("%v fired but is not pending (never booked, cancelled or fired before)", b)
	}
	if now != b.at {
		l.fail("%v fired at %d", b, now)
	}
	delete(l.pending, b)
	l.fired = append(l.fired, b)
}

// firesAction reports its booking to the ledger when it runs.
type firesAction struct {
	l *ledger
	e *Engine
	b booking
}

func (a *firesAction) Run() { a.l.fire(a.b, a.e.Now()) }

// scriptDelays holds more distinct delays than the engine has lanes, so
// a script overflows the lanes onto the heap.
var scriptDelays = []Duration{0, 1, 2, 3, 4, 5, 7, 9, 13, 20, 50, 100}

// playQueueScript runs a seeded script of processes that advance, yield,
// spawn, book After and AfterAction callbacks and arm, end-arm and
// disarm timers, all with delays drawn from scriptDelays. It returns the
// ledger and whether the heap ever held an event.
func playQueueScript(t *testing.T, seed int64) (*ledger, bool) {
	e := New(1)
	l := &ledger{pending: map[booking]bool{}}
	rng := rand.New(rand.NewSource(seed))
	spilled := false
	booked := func(b booking) {
		l.book(b)
		spilled = spilled || len(e.events.heap.a) > 0
	}
	timers := make([]*firesAction, 3)
	armed := make([]*Timer, len(timers))
	for i := range timers {
		timers[i] = &firesAction{l: l, e: e}
		armed[i] = e.NewTimer(timers[i])
	}
	spawns := 0
	var script func(p *Proc, steps int)
	script = func(p *Proc, steps int) {
		for i := 0; i < steps; i++ {
			d := scriptDelays[rng.Intn(len(scriptDelays))]
			next := booking{at: e.Now() + d, seq: e.seq + 1}
			switch op := rng.Intn(8); op {
			case 0, 1:
				booked(next)
				p.Advance(d)
				l.fire(next, p.Now())
			case 2:
				next.at = e.Now()
				booked(next)
				p.Yield()
				l.fire(next, p.Now())
			case 3:
				booked(next)
				e.After(d, func() { l.fire(next, e.Now()) })
			case 4:
				booked(next)
				e.AfterAction(d, &firesAction{l: l, e: e, b: next})
			case 5, 6:
				k := rng.Intn(len(timers))
				tm := armed[k]
				if tm.armed {
					delete(l.pending, timers[k].b)
				}
				if op == 5 {
					timers[k].b = booking{at: e.Now() + d, seq: e.Reserve()}
					tm.Arm(timers[k].b.at, timers[k].b.seq)
				} else {
					timers[k].b = booking{at: e.Now(), seq: math.MaxUint64, tie: tm.id}
					tm.ArmEnd()
				}
				booked(timers[k].b)
				if rng.Intn(4) == 0 {
					delete(l.pending, timers[k].b)
					tm.Disarm()
				}
			default:
				if spawns >= 40 {
					continue
				}
				spawns++
				next.at = e.Now()
				booked(next)
				p.Go(fmt.Sprint("child", spawns), func(c *Proc) {
					l.fire(next, c.Now())
					script(c, 30)
				})
			}
		}
	}
	for i := 0; i < 6; i++ {
		e.Go(fmt.Sprint("root", i), func(p *Proc) { script(p, 150) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return l, spilled
}

// TestDispatchOrderAcrossLanesHeapAndTimers checks the three-source pop:
// whatever lane, the heap or a timer holds a booking, every booking
// fires exactly once, and the firing sequence strictly increases by
// (at, seq), which is the order a single heap pops in.
func TestDispatchOrderAcrossLanesHeapAndTimers(t *testing.T) {
	spilled := 0
	for seed := int64(1); seed <= 20; seed++ {
		l, heap := playQueueScript(t, seed)
		if heap {
			spilled++
		}
		if len(l.errs) > 0 {
			t.Fatalf("seed %d: %d ledger failures, first: %s", seed, len(l.errs), l.errs[0])
		}
		if len(l.pending) != 0 {
			t.Fatalf("seed %d: %d bookings never fired, e.g. %v", seed, len(l.pending), l.pending)
		}
		for i := 1; i < len(l.fired); i++ {
			if !l.fired[i-1].before(l.fired[i]) {
				t.Fatalf("seed %d: firing %d at %v after %v", seed, i, l.fired[i], l.fired[i-1])
			}
		}
		if len(l.fired) < 1000 {
			t.Fatalf("seed %d: only %d firings", seed, len(l.fired))
		}
	}
	if spilled == 0 {
		t.Error("no script overflowed the lanes onto the heap")
	}
}

// checkCleared fails if any slot outside a lane's live span, or past
// the heap's length, still references an Action (a *Proc wake included).
func checkCleared(t *testing.T, e *Engine) {
	t.Helper()
	for i := range e.events.lanes {
		ln := &e.events.lanes[i]
		for j := ln.n; j < len(ln.buf); j++ {
			if ev := ln.buf[(ln.head+j)&(len(ln.buf)-1)]; ev.act != nil {
				t.Errorf("lane %d keeps a vacated slot referencing %T", i, ev.act)
			}
		}
	}
	a := e.events.heap.a
	for j, ev := range a[len(a):cap(a)] {
		if ev.act != nil {
			t.Errorf("heap keeps vacated slot %d referencing %T", len(a)+j, ev.act)
		}
	}
}

// TestDrainedLanesClearSlots guards against the lanes retaining *Proc
// pointers after their events pop: processes advancing by more distinct
// delays than there are lanes fill every lane and spill onto the heap,
// and every vacated slot must be cleared, both mid-run and once the run
// has drained.
func TestDrainedLanesClearSlots(t *testing.T) {
	e := New(1)
	for i := range scriptDelays {
		d := scriptDelays[i]
		e.Go(fmt.Sprint("p", i), func(p *Proc) {
			for j := 0; j < 40; j++ {
				p.Advance(d)
			}
			checkCleared(t, e)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.events.busy != 0 {
		t.Errorf("busy mask %08b after the run drained", e.events.busy)
	}
	used := 0
	for i := range e.events.lanes {
		if len(e.events.lanes[i].buf) > 0 {
			used++
		}
	}
	if used != nLanes || cap(e.events.heap.a) == 0 {
		t.Errorf("%d of %d lanes and a heap of capacity %d used; want every lane and the heap", used, nLanes, cap(e.events.heap.a))
	}
	checkCleared(t, e)
}
