package sim

import (
	"testing"
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
