package upc

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
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
			outstanding = th.Runtime().Cluster.PoolStats().Outstanding()
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
			outstanding = th.Runtime().Cluster.PoolStats().Outstanding()
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
