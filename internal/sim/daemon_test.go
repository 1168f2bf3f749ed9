package sim

import (
	"runtime"
	"testing"

	"repro/internal/trace"
)

func TestDaemonDoesNotBlockTermination(t *testing.T) {
	e := New(1)
	var (
		tasks []int
		ready WaitQueue
	)
	worked := 0
	e.Go("worker", func(p *Proc) {
		p.SetDaemon(true)
		for {
			for len(tasks) == 0 {
				ready.Wait(p, "idle")
			}
			tasks = tasks[1:]
			worked++
		}
	})
	e.Go("main", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Advance(10)
			tasks = append(tasks, i)
			ready.WakeOne()
		}
		p.Advance(10)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("run with parked daemon must terminate cleanly: %v", err)
	}
	if worked != 3 {
		t.Errorf("daemon processed %d tasks, want 3", worked)
	}
}

func TestNonDaemonStillDeadlocks(t *testing.T) {
	e := New(1)
	var q WaitQueue
	e.Go("daemon", func(p *Proc) {
		p.SetDaemon(true)
		q.Wait(p, "idle")
	})
	e.Go("stuck", func(p *Proc) {
		q.Wait(p, "stuck-forever")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("a parked non-daemon must still be a deadlock")
	}
}

func TestDaemonToggleBalanced(t *testing.T) {
	e := New(1)
	e.Go("p", func(p *Proc) {
		p.SetDaemon(true)
		p.SetDaemon(true) // idempotent
		p.SetDaemon(false)
		p.Advance(5)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.nDaemon != 0 {
		t.Errorf("daemon count = %d after toggles, want 0", e.nDaemon)
	}
}

func TestDaemonFinishingDecrementsCount(t *testing.T) {
	e := New(1)
	e.Go("d", func(p *Proc) {
		p.SetDaemon(true)
		p.Advance(1) // finishes normally
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.nDaemon != 0 || e.nLive != 0 {
		t.Errorf("counters after daemon exit: live=%d daemon=%d", e.nLive, e.nDaemon)
	}
}

// eventLog records every event it is sent.
type eventLog struct{ events []trace.Event }

func (l *eventLog) Emit(ev trace.Event) { l.events = append(l.events, ev) }

// settleGoroutines yields until goroutines that have signalled their end
// have exited, for a bounded number of rounds, and reports the goroutine
// count.
func settleGoroutines(want int) int {
	for i := 0; i < 100000 && runtime.NumGoroutine() > want; i++ {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// TestRunUnwindsParkedProcesses checks that Run stops the goroutines of
// the processes still parked when it returns — a daemon after a clean
// run, the stuck processes of a deadlock — so repeated runs do not
// accumulate them, and that the unwinding emits nothing: a deferred span
// closer and a deferred park in a daemon reach no sink.
func TestRunUnwindsParkedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		e := New(1)
		log := &eventLog{}
		e.SetTracer(log)
		var q WaitQueue
		e.Go("daemon", func(p *Proc) {
			p.SetDaemon(true)
			defer p.Yield()
			defer p.TraceSpan("test", "serve")()
			q.Wait(p, "idle")
		})
		e.Go("main", func(p *Proc) { p.Advance(1) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range log.events {
			if ev.Kind == trace.KSpanEnd || (ev.Kind == trace.KProcExit && ev.Name == "daemon") {
				t.Errorf("unwinding emitted %v %s", ev.Kind, ev.Name)
			}
		}
		if e.Tracer() != log {
			t.Error("Run did not restore the tracer after unwinding")
		}
	}
	if got := settleGoroutines(before); got != before {
		t.Errorf("%d goroutines after three runs with a parked daemon, %d before", got, before)
	}

	e := New(1)
	var q WaitQueue
	e.Go("daemon", func(p *Proc) {
		p.SetDaemon(true)
		q.Wait(p, "idle")
	})
	e.Go("stuck", func(p *Proc) { q.Wait(p, "stuck-forever") })
	e.Go("late", func(p *Proc) {
		p.Advance(5)
		q.Wait(p, "late-wait")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("a parked non-daemon must still be a deadlock")
	}
	if want := "sim: deadlock at 5ns: 2 live processes: [late (late-wait) stuck (stuck-forever)]"; err.Error() != want {
		t.Errorf("deadlock error %q, want %q", err, want)
	}
	if got := settleGoroutines(before); got != before {
		t.Errorf("%d goroutines after a deadlock, %d before", got, before)
	}
}
