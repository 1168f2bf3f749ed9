package upc

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// faultCfg is testCfg plus a fault schedule: 8 threads on 2 nodes so that
// thread i and thread i+4 always talk across the network.
func faultCfg(sched *fault.Schedule) Config {
	cfg := testCfg(8, 4, Processes, true)
	cfg.Faults = sched
	return cfg
}

// TestRetryRecoversFromDropWindow drives a blocking put through a window
// in which every cross-node message is dropped. The put must time out,
// back off, re-issue, and finally land once the window closes — all in
// virtual time, with the data intact.
func TestRetryRecoversFromDropWindow(t *testing.T) {
	sched := &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpDrop, At: 0, Until: 0.002, Prob: 1, Src: -1, Dst: -1},
	}}
	var landedAt sim.Time
	_, err := Run(faultCfg(sched), func(th *Thread) {
		s := Alloc[int](th, 8, 8, 1)
		if th.ID == 0 {
			if err := PutTErr(th, s, 4, 0, []int{42}); err != nil {
				t.Errorf("PutTErr under drop window: %v", err)
			}
			landedAt = th.Now()
		}
		th.Barrier()
		if th.ID == 4 && s.Local(th)[0] != 42 {
			t.Errorf("payload = %d, want 42", s.Local(th)[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Recovery cannot complete before the drop window closes: landing
	// earlier would mean the dropped attempt was silently delivered.
	if landedAt < sim.Time(2*sim.Millisecond) {
		t.Errorf("put completed at %v, inside the total-drop window", landedAt)
	}
}

// TestCrashRetireSurvivorsFinish crashes node 1 mid-run. Its threads must
// detect the failure and retire; the survivors on node 0 must keep
// passing barriers and get typed ErrNodeDown errors for sends toward the
// dead node.
func TestCrashRetireSurvivorsFinish(t *testing.T) {
	sched := &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpCrash, At: 0.001, Node: 1, Src: -1, Dst: -1},
	}}
	const rounds = 5
	done := make([]int, 8)
	var deadPeerErr error
	_, err := Run(faultCfg(sched), func(th *Thread) {
		s := Alloc[int](th, 8, 8, 1)
		for r := 0; r < rounds; r++ {
			th.P.Advance(500 * sim.Microsecond)
			if th.Failed() {
				th.Retire()
				return
			}
			th.Barrier()
			done[th.ID]++
		}
		if th.ID == 0 {
			// Node 1 is long dead: the put must fail fast and typed.
			deadPeerErr = PutTErr(th, s, 4, 0, []int{1})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 4; id++ {
		if done[id] != rounds {
			t.Errorf("survivor %d finished %d/%d rounds", id, done[id], rounds)
		}
	}
	for id := 4; id < 8; id++ {
		if done[id] >= rounds {
			t.Errorf("thread %d on crashed node finished all rounds", id)
		}
	}
	if !errors.Is(deadPeerErr, fault.ErrNodeDown) {
		t.Errorf("put to dead node: err = %v, want ErrNodeDown", deadPeerErr)
	}
	var ce *fault.CommError
	if !errors.As(deadPeerErr, &ce) {
		t.Fatalf("put to dead node: err %T is not *fault.CommError", deadPeerErr)
	}
	if ce.Op != "put" || ce.Dst != 4 {
		t.Errorf("CommError = %+v, want Op=put Dst=4", ce)
	}
}

func addInt64(a, b int64) int64 { return a + b }

// TestRetireReleasesCollective: threads retire between two collectives;
// the survivors' second reduction completes and combines only their
// contributions.
func TestRetireReleasesCollective(t *testing.T) {
	sched := &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpCrash, At: 0.001, Node: 1, Src: -1, Dst: -1},
	}}
	sums := make([]int64, 8)
	_, err := Run(faultCfg(sched), func(th *Thread) {
		if got := AllReduce(th, int64(th.ID), 8, addInt64); got != 28 {
			t.Errorf("thread %d pre-crash sum = %d, want 28", th.ID, got)
		}
		th.P.Advance(2 * sim.Millisecond)
		if th.Failed() {
			th.Retire()
			return
		}
		sums[th.ID] = AllReduce(th, int64(th.ID), 8, addInt64)
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 4; id++ {
		if sums[id] != 0+1+2+3 {
			t.Errorf("survivor %d post-crash sum = %d, want 6", id, sums[id])
		}
	}
}

// TestTryLockDeadHome: a lock homed on a crashed node is unacquirable,
// and the probe reports failure instead of waiting on a dead home.
func TestTryLockDeadHome(t *testing.T) {
	sched := &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpCrash, At: 0.001, Node: 1, Src: -1, Dst: -1},
	}}
	_, err := Run(faultCfg(sched), func(th *Thread) {
		l := AllocLock(th, 4) // homed on node 1
		th.P.Advance(2 * sim.Millisecond)
		if th.Failed() {
			th.Retire()
			return
		}
		if th.ID == 0 {
			if l.TryLock(th) {
				t.Error("TryLock succeeded on a lock homed on a dead node")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRangeErrorTyped: out-of-range accesses surface as *RangeError from
// the Err variants, and the legacy forms panic with the same value.
func TestRangeErrorTyped(t *testing.T) {
	_, err := Run(testCfg(2, 2, Processes, true), func(th *Thread) {
		s := Alloc[int](th, 4, 8, 2)
		buf := make([]int, 3)
		_, gerr := GetAsyncTErr(th, s, buf, 1, 0) // partition holds 2
		var re *RangeError
		if !errors.As(gerr, &re) {
			t.Fatalf("GetAsyncTErr = %v, want *RangeError", gerr)
		}
		if re.Op != "Get" || re.N != 3 || re.PartLen != 2 {
			t.Errorf("RangeError = %+v", re)
		}
		if th.ID == 0 {
			func() {
				defer func() {
					r := recover()
					if _, ok := r.(*RangeError); !ok {
						t.Errorf("legacy GetT panic = %v (%T), want *RangeError", r, r)
					}
				}()
				GetT(th, s, buf, 1, 0)
			}()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosRunDeterministic: the same (seed, schedule) pair must produce
// the exact same virtual timeline, retries and all.
func TestChaosRunDeterministic(t *testing.T) {
	run := func() sim.Time {
		sched := &fault.Schedule{Actions: []fault.Action{
			{Op: fault.OpDrop, At: 0, Until: 0.01, Prob: 0.4, Src: -1, Dst: -1},
			{Op: fault.OpDelay, At: 0, Until: 0.01, Prob: 0.3, Extra: 0.0002, Src: -1, Dst: -1},
		}}
		st, err := Run(faultCfg(sched), func(th *Thread) {
			s := Alloc[int](th, 64, 8, 8)
			for r := 0; r < 4; r++ {
				peer := (th.ID + 4) % 8
				if err := PutTErr(th, s, peer, r, []int{th.ID*100 + r}); err != nil {
					t.Errorf("thread %d round %d: %v", th.ID, r, err)
				}
				th.Barrier()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Time(st.Elapsed)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed+schedule diverged: %v vs %v", a, b)
	}
}

// TestFaultFreePathUnchanged: a schedule whose rules never match must
// leave every thread's virtual timeline exactly what it is without a
// schedule — the zero-cost-when-disabled property at the virtual-time
// level. (Engine end time may differ: unfired timeout timers fire as
// no-ops after the procs finish.)
func TestFaultFreePathUnchanged(t *testing.T) {
	run := func(cfg Config) []sim.Time {
		ends := make([]sim.Time, 8)
		_, err := Run(cfg, func(th *Thread) {
			s := Alloc[int](th, 64, 8, 8)
			for r := 0; r < 4; r++ {
				PutT(th, s, (th.ID+4)%8, r, []int{th.ID})
				th.Barrier()
			}
			ends[th.ID] = th.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		return ends
	}
	plain := run(testCfg(8, 4, Processes, true))
	armed := run(faultCfg(&fault.Schedule{Actions: []fault.Action{
		// Active schedule whose rules never match: src filter names a
		// node that does not exist on the 2-node slice in use.
		{Op: fault.OpDrop, At: 0, Prob: 1, Src: 63, Dst: -1},
	}}))
	for id := range plain {
		if plain[id] != armed[id] {
			t.Errorf("thread %d: armed-but-idle schedule moved finish %v -> %v",
				id, plain[id], armed[id])
		}
	}
}

// TestRejoinZeroState is the reincarnation path at the UPC level: node 1
// crashes and revives mid-run, its threads retire, park until the
// revival and rejoin with zero state, and the next plain barrier waits
// for all 8 threads again.
func TestRejoinZeroState(t *testing.T) {
	sched := &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpCrash, At: 0.001, Until: 0.002, Node: 1, Src: -1, Dst: -1},
	}}
	cfg := faultCfg(sched)
	coll := metrics.NewCollection()
	cfg.Tracer = coll
	released := make([]sim.Time, 8)
	rejoined := make([]bool, 8)
	_, err := Run(cfg, func(th *Thread) {
		th.Barrier()
		th.P.Advance(1500 * sim.Microsecond)
		if th.Failed() {
			th.Retire()
			if !th.ReviveScheduled() {
				t.Errorf("thread %d: scheduled revival not visible", th.ID)
				return
			}
			th.AwaitRevive()
			th.Rejoin()
			rejoined[th.ID] = true
		}
		// The rejoined threads arrive last: a barrier that releases after
		// their arrival proves they are members again.
		target := sim.Time(3 * sim.Millisecond)
		if rejoined[th.ID] {
			target = sim.Time(4 * sim.Millisecond)
		}
		th.P.Advance(target - th.Now())
		th.Barrier()
		released[th.ID] = th.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 8; id++ {
		if rejoined[id] != (id >= 4) {
			t.Errorf("thread %d rejoined = %v, want %v", id, rejoined[id], id >= 4)
		}
		if released[id] <= sim.Time(4*sim.Millisecond) {
			t.Errorf("thread %d left the barrier at %v, before the rejoined threads arrived at 4ms",
				id, released[id])
		}
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
