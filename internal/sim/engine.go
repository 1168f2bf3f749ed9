package sim

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"

	"repro/internal/trace"
)

// Engine is a sequential discrete-event simulator. Create one with New,
// register root processes with Go, then call Run. The engine is not safe
// for concurrent use from outside simulated processes; by construction only
// one simulated process executes at any instant, so model state needs no
// locking.
type Engine struct {
	now    Time
	seq    uint64
	events queue
	handTo *Proc // the process the hub resumes next; nil ends Run's loop

	armed   []*Timer // armed timers, unordered
	due     *Timer   // the earliest armed timer, nil when none is armed
	ntimers int

	// unwinding is set while Run stops the processes still parked at its
	// end: a resumed or parking process then raises unwound.
	unwinding bool

	procs   []*Proc
	nLive   int
	nDaemon int
	inRun   bool
	nextID  int

	rng      *rand.Rand
	tracer   trace.Tracer
	clock    bool              // emit KClock advances (tracer opted in via trace.ClockObserver)
	spanEnds FreeList[spanEnd] // pooled span closers (trace.go)

	panicVal   any
	panicProc  string
	panicStack []byte
}

// New returns an engine whose internal randomness (used by model code via
// Rand) is seeded with seed, making whole simulations reproducible.
func New(seed int64) *Engine {
	e := &Engine{
		rng:    rand.New(rand.NewSource(seed)),
		tracer: trace.Default(),
	}
	e.clock = trace.WantsClock(e.tracer)
	if e.tracer != nil {
		e.emit(trace.KRunBegin, trace.EngineProc, "sim", "run", "", seed, 0)
	}
	return e
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source. Only simulated
// processes and event callbacks may use it.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Go registers a root process that starts at time zero (when called before
// Run) or at the current time (when called from inside a running
// simulation).
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		eng:  e,
		id:   e.nextID,
		name: name,
		fn:   fn,
	}
	e.nextID++
	e.procs = append(e.procs, p)
	e.nLive++
	if e.tracer != nil {
		e.emit(trace.KProcSpawn, int32(p.id), "sim", name, "", 0, 0)
	}
	e.schedule(e.now, (*wake)(p))
	return p
}

// After runs fn in engine context after d elapses. fn must not park; it is
// for model-internal bookkeeping such as processor-sharing recomputation.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, funcAction(fn))
}

// Action is a pre-allocated event callback: hot paths implement Run on a
// pooled operation struct and book it with AfterAction, so completion
// work is scheduled without building a closure per event. Run executes in
// engine context under the same rules as an After callback (must not
// park). An Action may release itself back to its free list inside Run —
// the engine holds no reference after the call.
type Action interface{ Run() }

// AfterAction runs a.Run in engine context after d elapses; the
// allocation-free equivalent of After.
func (e *Engine) AfterAction(d Duration, a Action) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, a)
}

func (e *Engine) schedule(at Time, a Action) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, act: a}, e.now)
}

// unpark schedules a wake for a parked process at the current time. It is
// exported indirectly through WaitQueue; raw use is reserved for sim's own
// synchronization primitives.
func (e *Engine) unpark(p *Proc) {
	e.schedule(e.now, (*wake)(p))
}

// Run executes the simulation until no events remain. It returns a
// deadlock error if live processes remain parked with no event pending.
// A panic inside a simulated process is re-raised with its origin noted.
// Either way, the processes still parked when the simulation stops —
// daemons, deadlocked processes, the bystanders of a panic — are unwound
// before Run returns, so no process coroutine outlives the run.
//
// Every process is a coroutine (see pull), and Run's goroutine is the
// hub that resumes them. The process that parks or finishes runs the
// dispatch loop itself (advancing the clock, executing engine callbacks
// inline); when the loop wakes another process it names it in handTo
// and yields to the hub, which resumes it. A switch between processes is
// thus two coroutine switches, with no channel operation and no trip
// through the Go scheduler. The hub stops when a yield or return leaves
// handTo empty: nothing is pending, or a panic aborted the simulation.
func (e *Engine) Run() error {
	if e.inRun {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	e.inRun = true
	defer func() { e.inRun = false }()

	e.handoff(nil)
	for p := e.handTo; p != nil; p = e.handTo {
		e.handTo = nil
		p.next()
	}
	var err error
	if e.panicVal == nil && e.nLive > e.nDaemon {
		stuck := e.stuckProcs()
		err = fmt.Errorf("sim: deadlock at %v: %d live processes: %v", e.now, len(stuck), stuck)
	}
	e.unwind()
	e.repanic()
	return err
}

// unwound is the sentinel a process raises to unwind its coroutine when
// Run stops it.
type unwound struct{}

// discard is the event sink while processes unwind: deferred span
// closers still emit, but the run's stream has already ended.
type discard struct{}

func (discard) Emit(trace.Event) {}

// unwind stops every started process that has not finished, one at a
// time in creation order, through its coroutine's stop: the pending
// yield returns false, park raises unwound, and stop returns once top
// has recovered it. Deferred model code runs on the way out, so the
// tracer is swapped for a discarding sink and a park attempted meanwhile
// raises unwound again instead of dispatching events.
func (e *Engine) unwind() {
	tr := e.tracer
	if tr != nil {
		e.tracer = discard{}
	}
	e.unwinding = true
	for _, p := range e.procs {
		if p.started && !p.finished {
			p.stop()
		}
	}
	e.unwinding = false
	e.tracer = tr
}

// repanic re-raises a recorded simulation panic with its origin noted;
// a no-op if the run finished cleanly.
func (e *Engine) repanic() {
	if e.panicVal == nil {
		return
	}
	if e.panicProc == "" {
		// Engine-context panic (an After callback, a clock regression):
		// re-raise the original value, as the old engine loop did.
		panic(e.panicVal)
	}
	panic(fmt.Sprintf("sim: process %q panicked: %v\n%s",
		e.panicProc, e.panicVal, e.panicStack))
}

// stuckProcs lists the non-daemon processes still live, with their park
// reasons, sorted for deterministic error text.
func (e *Engine) stuckProcs() []string {
	var stuck []string
	for _, p := range e.procs {
		if p.daemon {
			continue
		}
		if !p.finished && p.started {
			stuck = append(stuck, fmt.Sprintf("%s (%s)", p.name, p.blocked))
		} else if !p.finished {
			stuck = append(stuck, p.name+" (never ran)")
		}
	}
	sort.Strings(stuck)
	return stuck
}

// handoff is the dispatch loop, run by whoever is giving up control (a
// parking or finishing process, or Run itself at startup). It pops
// events — executing callbacks and clock moves inline in engine context
// — until it wakes the next process or nothing is pending. Each pop
// takes the earliest by (at, seq) of three sources: the heads of the
// busy per-delay lanes, the heap top and the earliest armed Timer, so
// an event pops in the same place whichever source holds it. A panic in
// engine context is recorded, and handTo stays empty so the hub stops.
//
// parker is the process whose park invoked the loop (nil from Run and
// from a finishing process). When the next event wakes parker itself —
// a process dispatching its own Advance or Yield — the token is passed
// by setting parker.selfGrant, which park consumes without yielding:
// the common solo-process case costs no coroutine switch at all. Any
// other process is named in e.handTo for the hub to resume once the
// caller has yielded or returned; a process that has not run yet gets
// its coroutine here.
func (e *Engine) handoff(parker *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if e.panicVal == nil {
				e.panicVal = r
				e.panicProc = "" // engine context
				e.panicStack = debug.Stack()
			}
		}
	}()
	for {
		var ev event
		next, src := e.events.min()
		if t := e.due; t != nil && (next == nil || t.ev.before(next)) {
			ev = t.ev
			t.Disarm()
		} else if next != nil {
			ev = e.events.pop(src)
		} else {
			break
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: time ran backwards: %v -> %v", e.now, ev.at))
		}
		if ev.at != e.now {
			e.now = ev.at
			if e.clock {
				e.emit(trace.KClock, trace.EngineProc, "sim", "clock", "", int64(e.now), 0)
			}
		}
		w, ok := ev.act.(*wake)
		if !ok {
			ev.act.Run()
			continue
		}
		p := (*Proc)(w)
		if p.finished {
			continue
		}
		if !p.started {
			p.started = true
			p.next, p.stop = pull(p.top)
		} else {
			if e.tracer != nil {
				e.emit(trace.KProcUnpark, int32(p.id), "sim", p.name, p.blocked, 0, 0)
			}
			if p == parker {
				p.selfGrant = true
				return
			}
		}
		e.handTo = p
		return
	}
}

// Proc is a simulated execution context, run as a coroutine that the
// engine's hub resumes. All methods must be called from the process
// itself while it is the running process.
type Proc struct {
	eng  *Engine
	id   int
	name string
	fn   func(*Proc)

	// next resumes the process's coroutine and stop unwinds it (see
	// pull); yield, held by the coroutine itself, gives control back to
	// the hub.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// selfGrant is the in-place control token: set by handoff when the
	// dispatching process wakes itself, consumed by park without
	// yielding. Only ever accessed from p itself.
	selfGrant bool

	started  bool
	finished bool
	daemon   bool
	blocked  string // park reason; empty while runnable
}

// SetDaemon marks the process as a daemon: a simulation may finish while
// daemons are still parked (persistent pool workers waiting for tasks).
// Call it from the process itself or before it first runs.
func (p *Proc) SetDaemon(on bool) {
	if p.daemon == on {
		return
	}
	p.daemon = on
	if on {
		p.eng.nDaemon++
	} else {
		p.eng.nDaemon--
	}
}

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// top is the coroutine body wrapping the user function. When the
// function returns (or panics), the process runs the dispatch loop to
// name the next process before its coroutine ends; on panic, or when
// Run's unwind stopped it, it names none, so control returns to Run.
func (p *Proc) top(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		e := p.eng
		r := recover()
		_, stopped := r.(unwound)
		if r != nil && !stopped && e.panicVal == nil {
			e.panicVal = r
			e.panicProc = p.name
			e.panicStack = debug.Stack()
		}
		p.finished = true
		if e.tracer != nil {
			e.emit(trace.KProcExit, int32(p.id), "sim", p.name, "", 0, 0)
		}
		e.nLive--
		if p.daemon {
			e.nDaemon--
		}
		if e.panicVal != nil || e.unwinding {
			return
		}
		e.handoff(nil)
	}()
	p.fn(p)
}

// park suspends the process until the engine resumes it. The caller must
// already have arranged a wake (a scheduled event or a WaitQueue entry).
// The parking process itself dispatches the next event before it
// yields to the hub, and does not yield at all when that event is its
// own wake. When Run stops the process instead of resuming it, the
// yield returns false and park raises unwound (see Engine.unwind).
func (p *Proc) park(reason string) {
	e := p.eng
	if e.unwinding {
		panic(unwound{})
	}
	p.blocked = reason
	if e.tracer != nil {
		e.emit(trace.KProcPark, int32(p.id), "sim", p.name, reason, 0, 0)
	}
	e.handoff(p)
	if p.selfGrant {
		p.selfGrant = false
	} else if !p.yield(struct{}{}) {
		panic(unwound{})
	}
	p.blocked = ""
}

// Advance charges d of virtual time to the process: it suspends and wakes
// at now+d. Negative durations are treated as zero.
func (p *Proc) Advance(d Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.schedule(p.eng.now+d, (*wake)(p))
	p.park("advance")
}

// Yield reschedules the process at the current time, letting any other
// process with a pending event at now run first (FIFO order).
func (p *Proc) Yield() {
	p.eng.schedule(p.eng.now, (*wake)(p))
	p.park("yield")
}

// Go spawns a child process starting at the current virtual time.
func (p *Proc) Go(name string, fn func(*Proc)) *Proc {
	return p.eng.Go(name, fn)
}

// WaitQueue is a FIFO list of parked processes; the building block for
// locks, barriers, events and resource queues. It is a ring over a
// power-of-two backing array, so WakeOne dequeues in O(1) instead of
// shifting every remaining waiter, and woken slots are always cleared so
// the array retains no *Proc references.
type WaitQueue struct {
	buf  []*Proc
	head int
	n    int
}

// Len reports how many processes are parked on the queue.
func (q *WaitQueue) Len() int { return q.n }

// Wait parks p on the queue until a WakeOne/WakeAll reaches it.
func (q *WaitQueue) Wait(p *Proc, reason string) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
	p.park(reason)
}

// grow doubles the ring (minimum 8 slots), unwrapping the live span to
// the front of the new array.
func (q *WaitQueue) grow() {
	size := 8
	if len(q.buf) > 0 {
		size = 2 * len(q.buf)
	}
	buf := make([]*Proc, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// Remove deletes p from the queue without waking it, reporting whether it
// was present. The remaining waiters keep their FIFO order. It is the
// cancellation half of a timed wait: the canceller removes the process
// and schedules its wake itself.
func (q *WaitQueue) Remove(p *Proc) bool {
	for i := 0; i < q.n; i++ {
		if q.buf[(q.head+i)&(len(q.buf)-1)] != p {
			continue
		}
		for j := i; j < q.n-1; j++ {
			a := (q.head + j) & (len(q.buf) - 1)
			b := (q.head + j + 1) & (len(q.buf) - 1)
			q.buf[a] = q.buf[b]
		}
		q.buf[(q.head+q.n-1)&(len(q.buf)-1)] = nil
		q.n--
		return true
	}
	return false
}

// WaitTimeout parks p on the queue until a wake reaches it or d elapses,
// reporting whether the wake came from the queue (true) or from the
// timer (false). Callers use it under a predicate loop exactly like
// Wait, re-checking their condition either way: a false return only
// means the deadline passed, and in the rare coincidence of a same-tick
// wake and expiry the condition may in fact hold. As with
// Event.WaitTimeout, the timer event stays pending until its time
// arrives, so fault-free fast paths should use Wait.
func (q *WaitQueue) WaitTimeout(p *Proc, reason string, d Duration) bool {
	woken := false
	expired := false
	p.eng.After(d, func() {
		if woken || expired {
			return
		}
		expired = true
		if q.Remove(p) {
			p.eng.unpark(p)
		}
	})
	q.Wait(p, reason)
	woken = true
	return !expired
}

// WakeOne unparks the longest-waiting process, reporting whether one
// existed. Must be called from simulation context.
func (q *WaitQueue) WakeOne() bool {
	if q.n == 0 {
		return false
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	p.eng.unpark(p)
	return true
}

// WakeAll unparks every waiter in FIFO order, reporting how many were
// woken.
func (q *WaitQueue) WakeAll() int {
	woken := q.n
	for i := 0; i < woken; i++ {
		at := (q.head + i) & (len(q.buf) - 1)
		p := q.buf[at]
		q.buf[at] = nil
		p.eng.unpark(p)
	}
	q.head = 0
	q.n = 0
	return woken
}
