package upc

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// ckptApp is a minimal Checkpointer: one integer of application state
// whose modeled snapshot volume is 64 bytes.
type ckptApp struct{ val int }

func (a *ckptApp) CkptSnapshot() (any, int64) { return a.val, 64 }
func (a *ckptApp) CkptRestore(s any)          { a.val = s.(int) }

// TestCkptRoundTripRejoin is the reincarnation acceptance path at the
// UPC level: with Every=1 each barrier doubles as a checkpoint line,
// node 1 crashes and revives mid-run, and its threads rejoin at the
// next generation with their Shared, Shared2D and Checkpointer state
// restored from the cross-node buddy replicas.
func TestCkptRoundTripRejoin(t *testing.T) {
	sched := &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpCrash, At: 0.001, Until: 0.002, Node: 1, Src: -1, Dst: -1},
	}}
	cfg := faultCfg(sched)
	cfg.Ckpt = CkptConfig{Every: 1}
	coll := metrics.NewCollection()
	cfg.Tracer = coll
	restored := make([]int64, 8)
	_, err := Run(cfg, func(th *Thread) {
		s := Alloc[int](th, 8, 8, 1)
		m := Alloc2D[int](th, 4, 8, 2, 4, 8) // 2x2 tile per thread
		s.Persist(th)
		m.Persist(th)
		app := &ckptApp{val: 1000 + th.ID}
		th.SetCheckpointer(app)
		s.Local(th)[0] = 100 + th.ID
		tile := m.Tile(th)
		for i := range tile {
			tile[i] = th.ID*10 + i
		}
		th.Barrier() // checkpoint line: replicas ship to the buddies
		th.P.Advance(1500 * sim.Microsecond)
		if th.Failed() {
			// Crash: lose everything, retire from the collectives, park
			// until the scheduled revival, restore from the replica.
			s.Local(th)[0] = -1
			for i := range tile {
				tile[i] = -1
			}
			app.val = -1
			th.Retire()
			if !th.ReviveScheduled() {
				t.Errorf("thread %d: scheduled revival not visible", th.ID)
				return
			}
			th.AwaitRevive()
			restored[th.ID] = th.Rejoin()
		}
		// Survivors and the reborn meet at one more checkpointed barrier
		// well after the revival: rejoin must have re-admitted the dead.
		if target := sim.Time(3 * sim.Millisecond); th.Now() < target {
			th.P.Advance(target - th.Now())
		}
		if err := th.BarrierErr(); err != nil {
			t.Errorf("thread %d post-rejoin barrier: %v", th.ID, err)
		}
		if got := s.Local(th)[0]; got != 100+th.ID {
			t.Errorf("thread %d Shared after rejoin = %d, want %d", th.ID, got, 100+th.ID)
		}
		for i := range tile {
			if tile[i] != th.ID*10+i {
				t.Errorf("thread %d Shared2D tile[%d] after rejoin = %d, want %d",
					th.ID, i, tile[i], th.ID*10+i)
				break
			}
		}
		if app.val != 1000+th.ID {
			t.Errorf("thread %d app state after rejoin = %d, want %d", th.ID, app.val, 1000+th.ID)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replica volume per thread: one Shared elem (8B) + a 2x2 tile (32B)
	// + the 64B app snapshot.
	for id := 4; id < 8; id++ {
		if restored[id] != 8+32+64 {
			t.Errorf("thread %d restored %d bytes, want 104", id, restored[id])
		}
	}
	if got := coll.Reg.Counter("comm.ckpt.msgs"); got < 8 {
		t.Errorf("ckpt instants = %d, want >= 8 (every thread checkpoints at the line)", got)
	}
	if got := coll.Reg.Counter("comm.rejoin.msgs"); got != 4 {
		t.Errorf("rejoin instants = %d, want 4 (one per revived thread)", got)
	}
}

// TestStaleEpochFenceDropsStraddlingPut pins the membership-epoch fence:
// a put issued before a crash whose payload would land after the node's
// revival must NOT corrupt the new incarnation's restored state — the
// delivery-time fence drops the payload and the waiter gets a typed
// ErrStaleEpoch instead of a silent success.
func TestStaleEpochFenceDropsStraddlingPut(t *testing.T) {
	// A short bounce: down at 1ms, back at 1.05ms — shorter than the
	// straddling transfer, so the payload arrives into the next life.
	sched := &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpCrash, At: 0.001, Until: 0.00105, Node: 1, Src: -1, Dst: -1},
	}}
	cfg := faultCfg(sched)
	coll := metrics.NewCollection()
	cfg.Tracer = coll
	var staleErr error
	var dstWord int
	_, err := Run(cfg, func(th *Thread) {
		const block = 1 << 16
		s := Alloc[int](th, 8*block, 8, block)
		th.Barrier()
		if th.ID == 0 {
			// Issue at 0.9ms; the ~256KB transfer keeps the payload in
			// flight across the whole bounce window.
			th.P.Advance(900 * sim.Microsecond)
			payload := make([]int, 1<<15)
			for i := range payload {
				payload[i] = i + 1
			}
			staleErr = PutTErr(th, s, 4, 0, payload)
			dstWord = s.Partition(4)[0]
		} else {
			th.P.Advance(2 * sim.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(staleErr, fault.ErrStaleEpoch) {
		t.Fatalf("straddling put: err = %v, want ErrStaleEpoch", staleErr)
	}
	var ce *fault.CommError
	if !errors.As(staleErr, &ce) || ce.Op != "put" || ce.Dst != 4 {
		t.Errorf("straddling put error = %#v, want CommError{Op: put, Dst: 4}", staleErr)
	}
	if dstWord != 0 {
		t.Errorf("destination partition = %d after fenced put, want 0 (payload must be dropped)", dstWord)
	}
	if coll.Reg.Counter("comm.stale-drop.msgs") == 0 {
		t.Error("no stale-drop instant: the fence never fired, the payload landed somewhere")
	}
}

// TestCkptArmedIdleNoAlloc pins the armed-but-idle cost of the
// checkpoint layer: a run with Ckpt.Every set and arrays registered —
// but no checkpoint generation reached and no faults — must keep the
// blocking byte transfers at zero allocations per op, exactly like the
// unarmed hot path.
func TestCkptArmedIdleNoAlloc(t *testing.T) {
	cfg := testCfg(8, 4, Processes, true)
	cfg.Ckpt = CkptConfig{Every: 1 << 30}
	var putPer, getPer float64 = -1, -1
	_, err := Run(cfg, func(th *Thread) {
		s := Alloc[int64](th, 8, 8, 1)
		s.Persist(th)
		th.Barrier()
		if th.ID == 0 {
			for i := 0; i < 64; i++ {
				th.PutBytes(4, 8)
				th.GetBytes(4, 8)
			}
			putPer = testing.AllocsPerRun(200, func() { th.PutBytes(4, 8) })
			getPer = testing.AllocsPerRun(200, func() { th.GetBytes(4, 8) })
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if putPer != 0 {
		t.Errorf("ckpt-armed PutBytes allocates %v allocs/op, want 0", putPer)
	}
	if getPer != 0 {
		t.Errorf("ckpt-armed GetBytes allocates %v allocs/op, want 0", getPer)
	}
}
