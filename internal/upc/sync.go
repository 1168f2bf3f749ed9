package upc

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Barriers and collectives are sim.Rendezvous generations. Under fault
// injection they release once every *live* thread has arrived, so a
// node crash does not hang the survivors; retiring threads re-check the
// open generations (see Thread.Retire).

// releaseBarrier releases the open barrier generation, after the
// dissemination cost, once it is complete. id is the thread whose
// arrival or retirement completed it — the thread the release edge
// blames for every other waiter's delay.
func (rt *Runtime) releaseBarrier(id int) {
	if b := rt.bar; b.Complete() {
		rt.syncEdge(id, trace.EdgeBarRelease, "barrier", b.Seq())
		b.Release(rt.Eng, rt.barCost)
	}
}

// syncEdge emits thread id's arrival or release edge (name) at
// generation seq of a barrier or collective site.
func (rt *Runtime) syncEdge(id int, name, site string, seq int64) {
	if rt.edges {
		rt.threads[id].P.TraceInstant(trace.CatEdge, name, site, seq, rt.packSelf(id))
	}
}

// Lock is a UPC global lock (upc_lock_t). It has a home thread; acquiring
// it from another node pays a control round trip to the home, contended
// acquisitions queue FIFO at the home, and the grant pays the return
// latency.
type Lock struct {
	rt   *Runtime
	home int
	held bool
	// lastHolder is the thread whose Unlock most recently took effect, or
	// -1 before the first release — the thread a contended acquisition's
	// lock-grant edge blames.
	lastHolder int
	q          sim.WaitQueue
	release    lockRelease
}

// lockRelease is a Lock's pending release, booked by Unlock as an
// engine action. At most one is pending per lock: the lock stays held
// until it runs, so no other thread can acquire it and unlock again.
type lockRelease struct {
	l   *Lock
	tid int // the releasing thread
}

func (r *lockRelease) Run() {
	l := r.l
	l.held = false
	l.lastHolder = r.tid
	l.q.WakeOne()
}

// AllocLock collectively creates a lock homed on the given thread
// (upc_all_lock_alloc with explicit affinity).
func AllocLock(t *Thread, home int) *Lock {
	if home < 0 || home >= t.N {
		panic(fmt.Sprintf("upc: AllocLock home %d of %d threads", home, t.N))
	}
	t.Barrier()
	rec := t.rt.allocRecord(t.allocSeq, 1, 1, home+1, func() any {
		return &Lock{rt: t.rt, home: home, lastHolder: -1}
	})
	t.allocSeq++
	l, ok := rec.(*Lock)
	if !ok {
		panic("upc: collective Alloc type mismatch (expected Lock)")
	}
	t.Barrier()
	return l
}

// controlCost reports the one-way control-message cost between t and
// the lock's home.
func (l *Lock) controlCost(t *Thread) sim.Duration {
	switch {
	case t.ID == l.home:
		return 100 * sim.Nanosecond
	case topo.SameNode(t.Place, l.rt.places[l.home]) && l.rt.Cfg.sharedMem():
		return 200 * sim.Nanosecond // cache-line ping within the node
	default:
		cond := &l.rt.Cluster.Conduit
		return cond.SendOverhead + cond.MsgGap + cond.Latency
	}
}

// Lock acquires the lock (upc_lock), blocking while it is held. The
// acquisition is traced as an "upc/lock" span from request to grant.
func (l *Lock) Lock(t *Thread) {
	end := t.P.TraceSpanArg("upc", "lock", "", int64(l.home))
	t.P.Advance(l.controlCost(t)) // request travels to the home
	waited := false
	for l.held {
		waited = true
		l.q.Wait(t.P, "upc-lock")
	}
	l.held = true
	if l.rt.edges && waited && l.lastHolder >= 0 {
		t.P.TraceInstant(trace.CatEdge, trace.EdgeLockGrant, "", int64(l.home),
			trace.PackEndpoints(l.lastHolder, t.ID,
				l.rt.places[l.lastHolder].Node, t.Place.Node))
	}
	t.P.Advance(l.controlCost(t)) // grant travels back
	end()
}

// TryLock attempts acquisition without blocking (upc_lock_attempt),
// reporting success. The probe pays the control round trip either way.
// Under fault injection a lock whose home node is down is unacquirable:
// the probe fails immediately (the control message would be dropped).
func (l *Lock) TryLock(t *Thread) bool {
	if t.rt.FaultsOn() && !t.Alive(l.home) {
		t.P.TraceInstant("upc", "trylock", "dead-home", int64(l.home), 0)
		return false
	}
	t.P.Advance(l.controlCost(t))
	if l.held {
		t.P.Advance(l.controlCost(t))
		t.P.TraceInstant("upc", "trylock", "busy", int64(l.home), 0)
		return false
	}
	l.held = true
	t.P.Advance(l.controlCost(t))
	t.P.TraceInstant("upc", "trylock", "ok", int64(l.home), 0)
	return true
}

// Unlock releases the lock (upc_unlock). The release takes effect at the
// home after the one-way control cost; the releaser does not wait for it.
func (l *Lock) Unlock(t *Thread) {
	oneWay := l.controlCost(t)
	t.P.Advance(l.rt.Cluster.Conduit.SendOverhead / 2) // local injection cost
	t.P.TraceInstant("upc", "unlock", "", int64(l.home), 0)
	l.release = lockRelease{l: l, tid: t.ID}
	l.rt.Eng.AfterAction(oneWay, &l.release)
}
