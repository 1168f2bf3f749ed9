package upc

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topo"
)

func TestCollectivesChargeTime(t *testing.T) {
	var spent sim.Duration
	_, err := Run(testCfg(4, 2, Processes, true), func(th *Thread) {
		th.Barrier()
		start := th.Now()
		AllReduceSum(th, 1)
		if th.ID == 0 {
			spent = th.Now() - start
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if spent <= 0 {
		t.Error("a reduction across two nodes must charge virtual time")
	}
}

func TestPutBytesAndGetBytesModelTransfers(t *testing.T) {
	var putD, getD sim.Duration
	_, err := Run(testCfg(4, 2, Processes, true), func(th *Thread) {
		th.Barrier()
		if th.ID == 0 {
			start := th.Now()
			th.PutBytes(2, 1<<20) // remote node
			putD = th.Now() - start
			start = th.Now()
			th.GetBytes(2, 1<<20)
			getD = th.Now() - start
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	floor := sim.TransferTime(1<<20, 1.5e9)
	if putD < floor || getD < floor {
		t.Errorf("model transfers below bandwidth floor: put=%v get=%v floor=%v", putD, getD, floor)
	}
}

func TestApplyAsyncRunsHandlerAtDelivery(t *testing.T) {
	applied := false
	_, err := Run(testCfg(2, 1, Processes, true), func(th *Thread) {
		th.Barrier()
		if th.ID == 0 {
			h := ApplyAsync(th, 1, 4096, func() { applied = true })
			if applied {
				t.Error("handler must not run before delivery")
			}
			th.WaitSync(h)
			if !applied {
				t.Error("handler must have run by WaitSync return")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOnProcViewChargesToSubProc(t *testing.T) {
	// A view bound to another process must advance that process's clock,
	// not the master's.
	_, err := Run(testCfg(2, 1, Processes, true), func(th *Thread) {
		th.Barrier()
		if th.ID != 0 {
			return
		}
		done := &sim.Event{}
		var subElapsed sim.Duration
		masterStart := th.Now()
		th.P.Go("sub", func(p *sim.Proc) {
			v := th.OnProc(p, topo.Place{Node: th.Place.Node, Socket: th.Place.Socket, Core: 1})
			s0 := p.Now()
			v.PutBytes(1, 1<<20)
			subElapsed = p.Now() - s0
			done.Fire()
		})
		done.Wait(th.P)
		if subElapsed <= 0 {
			t.Error("sub-thread put charged no time")
		}
		// The master only waited; it must not have advanced beyond the
		// sub's completion (same instant).
		if th.Now()-masterStart != subElapsed {
			t.Errorf("master advanced %v, sub took %v", th.Now()-masterStart, subElapsed)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInternReturnsSingleton(t *testing.T) {
	_, err := Run(testCfg(4, 2, Processes, true), func(th *Thread) {
		v := th.Runtime().Intern("k", func() any { return new(int) })
		w := th.Runtime().Intern("k", func() any { return new(int) })
		if v != w {
			t.Error("Intern must return the same object for one key")
		}
		u := th.Runtime().Intern("k2", func() any { return new(int) })
		if u == v {
			t.Error("distinct keys must intern distinct objects")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPartitionMatchesLocal(t *testing.T) {
	_, err := Run(testCfg(4, 2, Processes, true), func(th *Thread) {
		s := Alloc[int](th, 32, 8, 8)
		s.Local(th)[0] = th.ID * 11
		th.Barrier()
		for p := 0; p < th.N; p++ {
			if got := s.Partition(p)[0]; got != p*11 {
				t.Errorf("Partition(%d)[0] = %d, want %d", p, got, p*11)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBlockedLayoutProperty(t *testing.T) {
	f := func(nRaw, thRaw uint8) bool {
		n := int(nRaw) + 1
		threads := int(thRaw)%16 + 1
		b := BlockedLayout(n, threads)
		// Every element fits in exactly one of `threads` blocks of size b.
		return b*threads >= n && (b-1)*threads < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
