package upc

import (
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Collective rendezvous machinery: every thread's k-th collective call
// resolves to one slot; the last arrival combines the contributions and
// books the release after the modeled tree cost.

type collSlot struct {
	seq     int // collective sequence number (completion-edge labels)
	arrived int
	present []bool // which threads contributed (faults only)
	vals    []any
	bytes   int64
	combine func(vals []any) any
	fired   bool
	result  any
	ev      *sim.Event
}

func (rt *Runtime) collSlot(seq int) *collSlot {
	for len(rt.colls) <= seq {
		rt.colls = append(rt.colls, nil)
	}
	if rt.colls[seq] == nil {
		rt.colls[seq] = &collSlot{
			seq:     seq,
			vals:    make([]any, rt.Cfg.Threads),
			present: make([]bool, rt.Cfg.Threads),
			ev:      &sim.Event{}, //upcvet:poolalloc -- one slot per collective phase, amortized over THREADS arrivals
		}
	}
	return rt.colls[seq]
}

// fire combines the contributions received so far and books the release.
// Under fault injection a dead thread's entry in vals stays nil; combine
// closures skip nil entries. id is the thread whose arrival (or
// retirement) completed the slot — the one the release edge blames.
func (slot *collSlot) fire(rt *Runtime, id int) {
	slot.fired = true
	slot.result = slot.combine(slot.vals)
	if rt.edges {
		rt.threads[id].P.TraceInstant(trace.CatEdge, trace.EdgeBarRelease,
			"coll", int64(slot.seq), rt.packSelf(id))
	}
	rt.Eng.After(rt.collCost(slot.bytes), slot.ev.Fire)
}

// complete reports whether every live thread has contributed.
func (slot *collSlot) complete(rt *Runtime) bool {
	for i, p := range slot.present {
		if !p && !rt.dead[i] {
			return false
		}
	}
	return true
}

// collCost models a binomial-tree collective moving bytes per round:
// ceil(log2(nodes)) network rounds plus an intra-node combine.
func (rt *Runtime) collCost(bytes int64) sim.Duration {
	cond := &rt.Cluster.Conduit
	cost := 2 * cond.LoopbackLatency
	if rt.nodesUsed > 1 {
		rounds := int64(math.Ceil(math.Log2(float64(rt.nodesUsed))))
		per := cond.Latency + cond.SendOverhead + cond.RecvOverhead +
			sim.TransferTime(bytes, cond.ConnBW)
		cost += sim.Duration(rounds) * per
	}
	return cost
}

// runCollective enters thread t's next collective with contribution val;
// the last live arrival runs combine over the contributions (indexed by
// thread id; entries of crashed threads are nil) and every participant
// returns the combined result after the tree cost for the given payload
// size. Retiring threads re-check in-progress slots (Thread.Retire), so
// a crash between two threads' arrivals does not hang the survivors.
func runCollective(t *Thread, val any, bytes int64, combine func(vals []any) any) any {
	end := t.P.TraceSpanArg("upc", "collective", "", bytes)
	rt := t.rt
	slot := rt.collSlot(t.collSeq)
	t.collSeq++
	slot.vals[t.ID] = val
	slot.present[t.ID] = true
	slot.arrived++
	if rt.edges {
		t.P.TraceInstant(trace.CatEdge, trace.EdgeBarArrive,
			"coll", int64(slot.seq), rt.packSelf(t.ID))
	}
	if slot.combine == nil {
		slot.combine, slot.bytes = combine, bytes
	}
	if !rt.faultsOn() {
		if slot.arrived == t.N {
			slot.fire(rt, t.ID)
		}
	} else if !slot.fired && slot.complete(rt) {
		slot.fire(rt, t.ID)
	}
	slot.ev.Wait(t.P)
	end()
	return slot.result
}

// AllReduce combines one value per thread with an associative operator and
// returns the reduction on every thread (upc_all_reduce + broadcast).
// Under fault injection, threads that crashed before contributing are
// simply absent from the reduction.
func AllReduce[T any](t *Thread, val T, elemBytes int, combine func(a, b T) T) T {
	r := runCollective(t, val, int64(elemBytes), func(vals []any) any {
		var acc T
		first := true
		for _, v := range vals {
			if v == nil {
				continue // crashed before contributing
			}
			if first {
				acc, first = v.(T), false
				continue
			}
			acc = combine(acc, v.(T))
		}
		return acc
	})
	return r.(T)
}

// AllReduceSum sums one float64 per thread across all threads.
func AllReduceSum(t *Thread, v float64) float64 {
	return AllReduce(t, v, 8, func(a, b float64) float64 { return a + b })
}
