package sim

import "math"

// Timer is a re-armable engine callback kept outside the event queue. A
// model object that keeps exactly one pending callback, and moves it far
// more often than it fires, arms one Timer instead of booking a fresh
// event per move and leaving the superseded ones to pop as no-ops: a
// re-arm books nothing, and a disarmed booking never pops.
//
// An armed timer is ordered against booked events by (at, seq) exactly as
// if it had been booked with AfterAction: arm it with a sequence number
// taken from Reserve at the point where AfterAction would have been
// called, and it pops where that event would have. Its callback runs
// under the same rules as an Action's (engine context, must not park).
type Timer struct {
	eng   *Engine
	ev    event // at, seq and the callback while armed
	id    int   // creation order: breaks ties between end-of-instant timers
	armed bool
}

// endOfInstant is the sequence number ArmEnd arms with: every event due
// at the current instant, including those booked after the arm, sorts
// before it.
const endOfInstant = math.MaxUint64

// NewTimer returns a disarmed timer whose firing runs a.Run.
func (e *Engine) NewTimer(a Action) *Timer {
	e.ntimers++
	return &Timer{eng: e, ev: event{act: a}, id: e.ntimers}
}

// Reserve takes the next event sequence number, as a booking would, and
// returns it for a later Timer.Arm. Every event booked afterwards sorts
// after the reserved number at equal times.
func (e *Engine) Reserve() uint64 {
	e.seq++
	return e.seq
}

// Arm books the timer to fire at (at, seq), replacing any pending
// booking. seq must come from Reserve; at must not be in the past.
func (t *Timer) Arm(at Time, seq uint64) {
	e := t.eng
	if at < e.now {
		panic("sim: Timer armed in the past")
	}
	t.ev.at, t.ev.seq = at, seq
	if !t.armed {
		t.armed = true
		e.armed = append(e.armed, t)
	}
	e.retime()
}

// ArmEnd books the timer to fire at the end of the current instant:
// after every event due now has run, including those booked after this
// call, and before the clock moves on. It replaces any pending booking.
func (t *Timer) ArmEnd() { t.Arm(t.eng.now, endOfInstant) }

// Disarm cancels the pending booking, if any.
func (t *Timer) Disarm() {
	if !t.armed {
		return
	}
	t.armed = false
	e := t.eng
	for i, u := range e.armed {
		if u == t {
			last := len(e.armed) - 1
			e.armed[i] = e.armed[last]
			e.armed[last] = nil
			e.armed = e.armed[:last]
			break
		}
	}
	e.retime()
}

// retime points e.due at the earliest armed timer, or nil. Engines arm
// a handful of timers at most (one per fabric.Net), so a scan is cheap.
func (e *Engine) retime() {
	e.due = nil
	for _, t := range e.armed {
		if d := e.due; d == nil || t.ev.before(&d.ev) || (t.ev.at == d.ev.at && t.ev.seq == d.ev.seq && t.id < d.id) {
			e.due = t
		}
	}
}
