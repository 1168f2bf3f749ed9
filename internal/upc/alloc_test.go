package upc

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestBlockingByteOpsNoAlloc pins the fault-free blocking byte transfers
// at zero allocations per operation: the UPC layer rides the pooled
// fabric records end to end and releases them internally, with no handle
// or retry context materialized. Threads 0 and 4 of the 8/4 layout are
// on different nodes, so this exercises the full network path.
func TestBlockingByteOpsNoAlloc(t *testing.T) {
	var putPer, getPer float64 = -1, -1
	var outstanding int64 = -1
	_, err := Run(testCfg(8, 4, Processes, true), func(th *Thread) {
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
		if th.ID == 0 {
			outstanding = th.Runtime().PoolStats().Outstanding()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if putPer != 0 {
		t.Errorf("blocking PutBytes allocates %v allocs/op, want 0", putPer)
	}
	if getPer != 0 {
		t.Errorf("blocking GetBytes allocates %v allocs/op, want 0", getPer)
	}
	if outstanding != 0 {
		t.Errorf("pool leak: %d records outstanding after the transfer loop", outstanding)
	}
}

// TestAsyncOpsNoAlloc pins the fault-free async one-sided operations
// at zero allocations per issue, wait and recycle once warm: handles
// come from the runtime's free list, typed payload records from the
// array's, and WaitSync returns both. Threads 0 and 4 of the 8/4 layout
// are on different nodes; thread 1 shares thread 0's node, so its
// CastPutAsync takes the cast memcpy path. Afterwards every pool —
// fabric records, handles and payload records — has drained.
func TestAsyncOpsNoAlloc(t *testing.T) {
	type op = func(th *Thread, s *Shared[int64], buf []int64)
	ops := []struct {
		name string
		op   op
	}{
		{"PutBytesAsync", func(th *Thread, _ *Shared[int64], _ []int64) { th.WaitSync(th.PutBytesAsync(4, 8)) }},
		{"CastPutAsync/remote", func(th *Thread, _ *Shared[int64], _ []int64) { th.WaitSync(th.CastPutAsync(4, 8)) }},
		{"CastPutAsync/cast", func(th *Thread, _ *Shared[int64], _ []int64) { th.WaitSync(th.CastPutAsync(1, 8)) }},
		{"PutAsyncT", func(th *Thread, s *Shared[int64], buf []int64) { th.WaitSync(PutAsyncT(th, s, 4, 2, buf)) }},
		{"GetAsyncT", func(th *Thread, s *Shared[int64], buf []int64) { th.WaitSync(GetAsyncT(th, s, buf, 4, 2)) }},
		{"ReadElem", func(th *Thread, s *Shared[int64], _ []int64) { sinkElem = ReadElem(th, s, 4*8+3) }},
		{"WriteElem", func(th *Thread, s *Shared[int64], _ []int64) { WriteElem(th, s, 4*8+3, 7) }},
	}
	got := make([]float64, len(ops))
	for i := range got {
		got[i] = -1
	}
	var outstanding int64 = -1
	_, err := Run(testCfg(8, 4, Processes, true), func(th *Thread) {
		s := Alloc[int64](th, 8*8, 8, 8)
		if th.ID == 0 {
			buf := make([]int64, 4)
			for i, o := range ops {
				for k := 0; k < 16; k++ {
					o.op(th, s, buf)
				}
				got[i] = testing.AllocsPerRun(100, func() { o.op(th, s, buf) })
			}
		}
		th.Barrier()
		if th.ID == 0 {
			outstanding = th.Runtime().PoolStats().Outstanding()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range ops {
		if got[i] != 0 {
			t.Errorf("%s allocates %v allocs/op, want 0", o.name, got[i])
		}
	}
	if outstanding != 0 {
		t.Errorf("pool leak: %d records outstanding after the async loop", outstanding)
	}
}

// TestLockCycleNoAlloc pins a warm lock/unlock cycle at zero
// allocations, for a lock homed on the caller, on its node and across
// the network: Unlock books its delayed release through the record
// embedded in the Lock. The next Lock finds the release still pending
// and waits on the lock's queue, so the contended path is covered too.
func TestLockCycleNoAlloc(t *testing.T) {
	homes := []int{0, 1, 4}
	got := []float64{-1, -1, -1}
	_, err := Run(testCfg(8, 4, Processes, true), func(th *Thread) {
		for i, home := range homes {
			l := AllocLock(th, home)
			if th.ID == 0 {
				for k := 0; k < 16; k++ {
					l.Lock(th)
					l.Unlock(th)
				}
				got[i] = testing.AllocsPerRun(200, func() {
					l.Lock(th)
					l.Unlock(th)
				})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, home := range homes {
		if got[i] != 0 {
			t.Errorf("lock homed on thread %d: lock/unlock allocates %v allocs/op, want 0", home, got[i])
		}
	}
}

// sinkElem keeps ReadElem's result live in TestAsyncOpsNoAlloc.
var sinkElem int64

// TestAsyncRecordsRecycle: a warm async exchange reuses its handles and
// payload records instead of making new ones, and the typed copies
// still land — a put's snapshot is taken at issue, a get reads the
// source at delivery.
func TestAsyncRecordsRecycle(t *testing.T) {
	var warm, after sim.PoolStats
	_, err := Run(testCfg(8, 4, Processes, true), func(th *Thread) {
		s := Alloc[int64](th, 8*8, 8, 8)
		if th.ID == 0 {
			src := []int64{1, 2, 3}
			dst := make([]int64, 3)
			for round := 0; round < 20; round++ {
				if round == 10 {
					warm = th.Runtime().PoolStats()
				}
				src[0] = int64(round)
				h := PutAsyncT(th, s, 4, 0, src)
				src[0] = -1 // the put already took its snapshot
				th.WaitSync(h)
				th.WaitSync(GetAsyncT(th, s, dst, 4, 0))
				if dst[0] != int64(round) || dst[2] != 3 {
					t.Errorf("round %d: got %v", round, dst)
				}
			}
			after = th.Runtime().PoolStats()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if after.News != warm.News {
		t.Errorf("warm rounds made %d new records, want 0", after.News-warm.News)
	}
	if after.Outstanding() != 0 {
		t.Errorf("%d records outstanding after the exchange", after.Outstanding())
	}
}

// TestChaosSoakPoolsDrain is the pool reuse invariant under fault
// injection: across a soak of retried puts and gets through drop,
// duplicate and delay windows, every record taken from a free list must
// return to it — abandoned (timed-out) operations included, because the
// retry layer releases its hold and the last in-flight leg recycles the
// record when it drains. Outstanding() != 0 after quiescence means a
// Get without a matching Put, i.e. a leaked or double-held record.
func TestChaosSoakPoolsDrain(t *testing.T) {
	sched := &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpDrop, At: 0.0005, Until: 0.002, Prob: 0.5, Src: -1, Dst: -1},
		{Op: fault.OpDuplicate, At: 0.002, Until: 0.004, Prob: 0.5, Src: -1, Dst: -1},
		{Op: fault.OpDelay, At: 0.004, Until: 0.006, Prob: 0.5, Src: -1, Dst: -1, Extra: 0.0002},
	}}
	cfg := testCfg(8, 4, Processes, true)
	cfg.Faults = sched
	var outstanding int64 = -1
	_, err := Run(cfg, func(th *Thread) {
		s := Alloc[int64](th, 8*8, 8, 8)
		peer := (th.ID + 4) % 8 // always cross-node
		buf := make([]int64, 4)
		for round := 0; round < 40; round++ {
			if err := PutTErr(th, s, peer, 0, []int64{int64(th.ID), int64(round), 3, 4}); err != nil {
				t.Fatalf("thread %d round %d put: %v", th.ID, round, err)
			}
			if err := GetTErr(th, s, buf, peer, 0); err != nil {
				t.Fatalf("thread %d round %d get: %v", th.ID, round, err)
			}
		}
		th.Barrier()
		if th.ID == 0 {
			outstanding = th.Runtime().PoolStats().Outstanding()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if outstanding != 0 {
		t.Errorf("pool leak under chaos: %d records outstanding after quiescence", outstanding)
	}
}

// TestEdgeEmissionOffNoAlloc pins the zero-cost-when-off contract of
// the completion-edge events the causality analysis consumes: with no
// edge-observing sink attached — the default — the gate (Runtime.edges,
// one cached bool) stays closed and the blocking byte-transfer hot
// path, which now carries the gated deliver/retry emission points,
// still runs at 0 allocs/op.
func TestEdgeEmissionOffNoAlloc(t *testing.T) {
	var putPer, getPer float64 = -1, -1
	edgesOn := true
	_, err := Run(testCfg(8, 4, Processes, true), func(th *Thread) {
		th.Barrier()
		if th.ID == 0 {
			edgesOn = th.Runtime().edges
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
	if edgesOn {
		t.Error("edge gate open without an edge-observing tracer")
	}
	if putPer != 0 {
		t.Errorf("untraced PutBytes allocates %v allocs/op, want 0", putPer)
	}
	if getPer != 0 {
		t.Errorf("untraced GetBytes allocates %v allocs/op, want 0", getPer)
	}
}

// edgeCollection is a metrics Collection that also opts into
// completion-edge events.
type edgeCollection struct{ *metrics.Collection }

func (edgeCollection) ObserveEdge() bool { return true }

// TestEdgeEmissionOnIsGated is the other half of the pin: an
// edge-observing sink flips the gate on, and the same run emits the
// barrier/lock completion edges the analysis needs — proving the off
// path above exercised the same compiled-in emission points.
func TestEdgeEmissionOnIsGated(t *testing.T) {
	coll := edgeCollection{metrics.NewCollection()}
	cfg := testCfg(8, 4, Processes, true)
	cfg.Tracer = coll
	_, err := Run(cfg, func(th *Thread) {
		if !th.Runtime().edges {
			t.Error("edge-observing tracer did not enable emission")
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	arrives := coll.Reg.Counter("instant." + trace.CatEdge + "/" + trace.EdgeBarArrive + ".n")
	releases := coll.Reg.Counter("instant." + trace.CatEdge + "/" + trace.EdgeBarRelease + ".n")
	if arrives == 0 || releases == 0 {
		t.Errorf("edge events missing with gate open: %d arrivals, %d releases", arrives, releases)
	}
}
