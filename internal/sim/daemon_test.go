package sim

import (
	"fmt"
	"runtime"
	"strings"
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
// count. With want 0, which the count never reaches, it runs every round:
// that settles a baseline that earlier tests' runs may still be leaving.
func settleGoroutines(want int) int {
	for i := 0; i < 100000 && runtime.NumGoroutine() > want; i++ {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// runOutcome runs e and reports the text of any panic Run raised and
// Run's error.
func runOutcome(e *Engine) (panicked string, err error) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return "", e.Run()
}

// TestRunUnwindsParkedProcesses checks that Run stops the processes still
// parked when it returns — a daemon after a clean run, the stuck
// processes of a deadlock, the bystanders of a process panic or of a
// panic in an After callback — so repeated runs do not accumulate their
// goroutines, and that the unwinding emits nothing: a deferred span
// closer and a deferred park in a daemon reach no sink. Each case parks a
// daemon with those defers next to its own ending.
func TestRunUnwindsParkedProcesses(t *testing.T) {
	cases := []struct {
		name string
		// body adds the processes that end the run next to the daemon.
		body     func(e *Engine, q *WaitQueue)
		err      string // Run's error text, "" for none
		panicked string // the start of the re-raised panic's text
	}{
		{
			name: "clean",
			body: func(e *Engine, _ *WaitQueue) {
				e.Go("main", func(p *Proc) { p.Advance(1) })
			},
		},
		{
			name: "deadlock",
			body: func(e *Engine, q *WaitQueue) {
				e.Go("stuck", func(p *Proc) { q.Wait(p, "stuck-forever") })
				e.Go("late", func(p *Proc) {
					p.Advance(5)
					q.Wait(p, "late-wait")
				})
			},
			err: "sim: deadlock at 5ns: 2 live processes: [late (late-wait) stuck (stuck-forever)]",
		},
		{
			name: "process-panic",
			body: func(e *Engine, q *WaitQueue) {
				e.Go("stuck", func(p *Proc) { q.Wait(p, "stuck-forever") })
				e.Go("bomb", func(p *Proc) {
					p.Advance(3)
					panic("boom")
				})
			},
			panicked: `sim: process "bomb" panicked: boom`,
		},
		{
			name: "engine-panic",
			body: func(e *Engine, q *WaitQueue) {
				e.Go("stuck", func(p *Proc) { q.Wait(p, "stuck-forever") })
				e.Go("main", func(p *Proc) {
					e.After(2, func() { panic("callback boom") })
					p.Advance(10)
				})
			},
			panicked: "callback boom",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := settleGoroutines(0)
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
				tc.body(e, &q)
				panicked, err := runOutcome(e)
				if got := fmt.Sprint(err); (err != nil || tc.err != "") && got != tc.err {
					t.Errorf("Run error %q, want %q", got, tc.err)
				}
				if !strings.HasPrefix(panicked, tc.panicked) || (panicked == "") != (tc.panicked == "") {
					t.Errorf("Run panicked with %q, want %q", panicked, tc.panicked)
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
				t.Errorf("%d goroutines after three runs, %d before", got, before)
			}
		})
	}
}
