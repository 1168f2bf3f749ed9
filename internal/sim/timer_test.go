package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// firing is one entry of a script's firing log.
type firing struct {
	name string
	at   Time
}

// logAction appends its name and firing time to a shared log.
type logAction struct {
	e    *Engine
	log  *[]firing
	name string
}

func (a *logAction) Run() { *a.log = append(*a.log, firing{a.name, a.e.Now()}) }

// playTickScript runs a seeded script in which one process books plain
// events and keeps moving a single pending callback, "tick", among them,
// often onto a plain event's time. move books the tick d from now,
// replacing its previous booking. It returns every plain event and every
// live tick in firing order.
func playTickScript(seed int64, move func(e *Engine, tick Action, d Duration)) []firing {
	e := New(1)
	var log []firing
	tick := &logAction{e: e, log: &log, name: "tick"}
	rng := rand.New(rand.NewSource(seed))
	e.Go("p", func(p *Proc) {
		for i := 0; i < 300; i++ {
			switch rng.Intn(4) {
			case 0:
				e.AfterAction(Duration(rng.Intn(6)), &logAction{e: e, log: &log, name: fmt.Sprint("ev", i)})
			case 1:
				move(e, tick, Duration(rng.Intn(6)))
			case 2:
				p.Advance(Duration(rng.Intn(3)))
			default:
				p.Yield()
			}
		}
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	return log
}

// staleTick is the heap flavor of a moved callback: every move books a
// fresh event, and only the latest booking runs.
type staleTick struct {
	epoch *int
	mine  int
	tick  Action
}

func (s *staleTick) Run() {
	if *s.epoch == s.mine {
		s.tick.Run()
	}
}

// TestTimerPopsWhereAfterActionWould plays the same scripts twice: once
// booking every move of the tick with AfterAction and dropping the
// superseded bookings when they pop, once re-arming one Timer with a
// Reserve'd sequence number. Every event, the tick included, must fire
// in the same order at the same time, ties at equal times included.
func TestTimerPopsWhereAfterActionWould(t *testing.T) {
	ties := 0
	for seed := int64(1); seed <= 50; seed++ {
		epoch := 0
		heap := playTickScript(seed, func(e *Engine, tick Action, d Duration) {
			epoch++
			e.AfterAction(d, &staleTick{epoch: &epoch, mine: epoch, tick: tick})
		})
		var timer *Timer
		rearmed := playTickScript(seed, func(e *Engine, tick Action, d Duration) {
			if timer == nil {
				timer = e.NewTimer(tick)
			}
			timer.Arm(e.Now()+d, e.Reserve())
		})
		if fmt.Sprint(heap) != fmt.Sprint(rearmed) {
			t.Fatalf("seed %d: AfterAction order\n%v\nre-armed Timer order\n%v", seed, heap, rearmed)
		}
		for i, f := range heap {
			if f.name == "tick" && ((i > 0 && heap[i-1].at == f.at) || (i+1 < len(heap) && heap[i+1].at == f.at)) {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Error("the scripts never fired the tick at a plain event's time")
	}
}

// TestTimerEndOfInstantAndDisarm checks that a timer armed for the end
// of the instant runs after events booked at that instant later than the
// arm, a process's yield included, and before the clock moves; that two
// end-of-instant timers run in creation order; and that a disarmed timer
// never fires and does not keep the run alive.
func TestTimerEndOfInstantAndDisarm(t *testing.T) {
	e := New(1)
	var log []firing
	ev := func(name string) Action { return &logAction{e: e, log: &log, name: name} }
	first := e.NewTimer(ev("end1"))
	second := e.NewTimer(ev("end2"))
	never := e.NewTimer(ev("never"))
	e.Go("p", func(p *Proc) {
		p.Advance(3)
		never.Arm(9, e.Reserve())
		second.ArmEnd()
		first.ArmEnd()
		e.AfterAction(0, ev("x"))
		p.Yield()
		log = append(log, firing{"p", p.Now()})
		e.AfterAction(0, ev("y"))
		e.AfterAction(1, ev("z"))
		never.Disarm()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[{x 3} {p 3} {y 3} {end1 3} {end2 3} {z 4}]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("firing order %s, want %s", got, want)
	}
	if e.Now() != 4 {
		t.Errorf("run ended at %d, want 4: a disarmed timer must not move the clock", e.Now())
	}
}
