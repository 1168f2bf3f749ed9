package upc

import (
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
)

// collective is the run's collective rendezvous: every thread's k-th
// collective call joins generation k; the last live arrival combines the
// contributions and books the release after the modeled tree cost.
type collective struct {
	rv      *sim.Rendezvous
	vals    []any // this generation's contributions, by thread id
	bytes   int64
	combine func(vals []any) any
	result  any
}

// releaseColl combines the open collective generation's contributions
// and books its release once it is complete. Under fault injection a
// dead thread's entry in vals stays nil; combine closures skip nil
// entries. id is the thread whose arrival (or retirement) completed the
// generation — the one the release edge blames.
func (rt *Runtime) releaseColl(id int) {
	c := &rt.coll
	if !c.rv.Complete() {
		return
	}
	c.result = c.combine(c.vals)
	clear(c.vals)
	c.combine = nil
	rt.syncEdge(id, trace.EdgeBarRelease, "coll", c.rv.Seq())
	c.rv.Release(rt.Eng, rt.collCost(c.bytes))
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

// AllReduce combines one value per thread with an associative operator and
// returns the reduction on every thread (upc_all_reduce + broadcast)
// after the tree cost for elemBytes. The last live arrival combines the
// contributions. Under fault injection, threads that crashed before
// contributing are simply absent from the reduction, and retiring
// threads re-check the open generation (Thread.Retire), so a crash
// between two threads' arrivals does not hang the survivors.
func AllReduce[T any](t *Thread, val T, elemBytes int, combine func(a, b T) T) T {
	end := t.P.TraceSpanArg("upc", "collective", "", int64(elemBytes))
	rt := t.rt
	c := &rt.coll
	c.vals[t.ID] = val
	ev := c.rv.Arrive(t.ID)
	rt.syncEdge(t.ID, trace.EdgeBarArrive, "coll", c.rv.Seq())
	if c.combine == nil {
		c.bytes = int64(elemBytes)
		c.combine = func(vals []any) any {
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
		}
	}
	rt.releaseColl(t.ID)
	ev.Wait(t.P)
	end()
	return c.result.(T)
}

// AllReduceSum sums one float64 per thread across all threads.
func AllReduceSum(t *Thread, v float64) float64 {
	return AllReduce(t, v, 8, func(a, b float64) float64 { return a + b })
}
