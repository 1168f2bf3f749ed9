package upc

import (
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Self-healing layer: when a fault schedule is installed (Config.Faults
// or the process default), one-sided operations on network paths gain
// virtual-time timeouts with capped exponential backoff and bounded
// retries, barriers and collectives release on the live threads alone,
// and applications can poll Failed/Alive and Retire crashed threads so
// the survivors finish the run. Without a schedule every hook collapses
// to a nil check and the runtime behaves exactly as before.

// FaultsOn reports whether a fault schedule is installed on this run.
func (rt *Runtime) FaultsOn() bool { return rt.inj != nil }

// LiveThreads reports how many threads have not retired.
func (rt *Runtime) LiveThreads() int { return rt.Cfg.Threads - rt.nDead }

// Failed reports whether this thread's own node is crashed under the
// run's fault schedule. Fault-tolerant applications poll it at work-loop
// boundaries and Retire when it reports true.
func (t *Thread) Failed() bool {
	return t.rt.FaultsOn() && t.rt.Cluster.NodeDown(t.Place.Node)
}

// Alive reports whether peer is usable as a communication target: it has
// not retired and its node is up. Always true without a fault schedule.
func (t *Thread) Alive(peer int) bool {
	rt := t.rt
	if !rt.FaultsOn() {
		return true
	}
	return !rt.dead[peer] && !rt.Cluster.NodeDown(rt.places[peer].Node)
}

// Retire removes this thread from the SPMD collective population after
// its node crashed: the open barrier and collective generations re-check
// for release on the survivors alone, and future ones never wait for it.
// Idempotent; the thread must not issue further barriers or collectives
// afterwards.
func (t *Thread) Retire() {
	rt := t.rt
	if rt.dead[t.ID] {
		return
	}
	rt.dead[t.ID] = true
	rt.nDead++
	t.FaultEvent("retire", t.ID, 0)
	rt.releaseBarrier(t.ID)
	rt.releaseColl(t.ID)
}

// ReviveScheduled reports whether the fault schedule revives this
// thread's node after the current virtual time — i.e. whether parking
// in AwaitRevive is guaranteed a wake-up. A thread whose node died for
// good sees false and should Retire permanently.
func (t *Thread) ReviveScheduled() bool {
	rt := t.rt
	return rt.FaultsOn() && rt.inj.WillRevive(t.Place.Node)
}

// AwaitRevive parks the thread until its node's scheduled revival.
// Check ReviveScheduled first: without a booked revival the park would
// never wake. Returns immediately when the node is up.
func (t *Thread) AwaitRevive() {
	rt := t.rt
	if !rt.FaultsOn() {
		return
	}
	node := t.Place.Node
	for rt.Cluster.NodeDown(node) {
		rt.reviveQ[node].Wait(t.P, "upc-revive")
	}
}

// Rejoin re-admits a retired thread after its node's revival with zero
// state: the dead mark clears (barrier and collective membership
// includes it again from the open generation) and the rejoin edge is
// emitted for the causality analyzer. The thread must rebuild its own
// data and re-enter the application's membership structures (steal
// rings, probe sets) itself. No-op unless the thread actually retired.
func (t *Thread) Rejoin() {
	rt := t.rt
	if !rt.FaultsOn() || !rt.dead[t.ID] {
		return
	}
	rt.dead[t.ID] = false
	rt.nDead--
	t.FaultEvent("rejoin", t.ID, 0)
	if rt.edges {
		t.P.TraceInstant(trace.CatEdge, trace.EdgeRejoin, "", 0,
			trace.PackEndpoints(t.ID, t.ID, rt.places[t.ID].Node, t.Place.Node))
	}
}

// FaultEvent emits one recovery-visibility instant (comm-matrix class
// fault) from this thread toward peer: timeouts, retries, failovers.
// Free when untraced.
func (t *Thread) FaultEvent(name string, peer int, bytes int64) {
	if !t.rt.Eng.Tracing() {
		return
	}
	t.P.TraceInstant(trace.CatComm, name, trace.ClassFault, bytes,
		trace.PackEndpoints(t.ID, peer, t.Place.Node, t.rt.places[peer].Node))
}

// retriable reports whether an op toward peer needs timeout/retry
// protection: only network paths (the conduit or its loopback) under an
// installed fault schedule. Shared-memory copies cannot lose messages.
func (t *Thread) retriable(peer int) bool {
	return t.rt.FaultsOn() && !t.Castable(peer)
}

// fence takes the membership-epoch fence of an operation this thread
// issues toward peer: the zero fault.Fence without a fault schedule.
func (t *Thread) fence(peer int) fault.Fence {
	return t.rt.inj.Fence(t.ID, peer, t.Place.Node, t.rt.places[peer].Node)
}

// protect issues an op toward peer on a protected path with its retry
// context armed, so WaitSyncErr recovers lost messages; it fails fast
// when either end is already down.
func (t *Thread) protect(opName string, peer int, bytes int64, issue func() *fabric.NetOp) (*Handle, error) {
	if t.Failed() || !t.Alive(peer) {
		return nil, &fault.CommError{Op: opName, Src: t.ID, Dst: peer, Err: fault.ErrNodeDown}
	}
	h := t.handle(issue(), nil)
	h.retry = &retryCtx{opName: opName, peer: peer, bytes: bytes, reissue: issue, fence: t.fence(peer)}
	return h, nil
}

// WaitSyncErr blocks until the asynchronous operation completes,
// recovering lost messages through fault.Await's deadline ladder when
// the handle was issued on a protected path (see waitRetry). It is the
// error-returning form of WaitSync. Either way the wait consumes the
// handle: it goes back to the runtime's free list, with its typed
// payload record, for the next operation to reuse.
func (t *Thread) WaitSyncErr(h *Handle) error {
	if h.op == nil {
		return nil
	}
	var err error
	if h.retry != nil {
		err = t.waitRetry(h.op, h.retry)
	} else {
		t.complete(h.op)
	}
	if h.rec != nil {
		h.rec.recycle()
	}
	*h = Handle{}
	t.rt.handles.Put(h)
	return err
}

// waitRetry is WaitSyncErr on a retry-armed handle: the op is re-issued
// on each timeout (payload applies are idempotent copies, so a late
// original delivery or an injected duplicate is harmless) until it
// completes, retries run out, or a node died. It lives apart from the
// fault-free wait because its Reissue closure moves the current op to
// the heap.
func (t *Thread) waitRetry(op *fabric.NetOp, r *retryCtx) error {
	rt := t.rt
	err := fault.Await(&fault.Wait{
		Op: r.opName, Src: t.ID, Dst: r.peer, Bytes: r.bytes,
		Xfer: rt.Cluster.Conduit.ExpectXfer(r.bytes),
		P:    t.P, Done: &op.Remote, Fence: r.fence,
		Down:  func() bool { return t.Failed() || !t.Alive(r.peer) },
		Event: t.FaultEvent,
		Reissue: func(attempt int) *sim.Event {
			if rt.edges {
				t.P.TraceInstant(trace.CatEdge, trace.EdgeRetry, r.opName, int64(attempt),
					trace.PackEndpoints(t.ID, r.peer, t.Place.Node, rt.places[r.peer].Node))
			}
			// Abandon the timed-out op before reissuing: dropping the
			// hold lets its pooled record recycle once any in-flight legs
			// (a delayed original, an injected duplicate) drain.
			op.Release()
			op = r.reissue()
			return &op.Remote
		},
	})
	op.Release()
	return err
}

// ---- Error-returning one-sided operations ----
//
// The Err variants recover from injected message loss on network paths
// and surface unrecoverable failures (crashed nodes, exhausted retries,
// out-of-range accesses) as typed errors. The legacy void forms delegate
// to them and panic on error, preserving their historical contract.
//
// On a fault-free path every operation is allocation-free after warm-up:
// fabric records, handles and typed payload records all come from free
// lists. A retry-armed operation allocates its retry context, re-issue
// closures and payload copies instead, because a late original delivery
// or an injected duplicate may run its copy after the wait has returned.

// PutBytesErr is PutBytes with fault recovery and typed errors. On a
// fault-free run the blocking form never materializes a handle or retry
// context: it rides the pooled fabric record end to end.
func (t *Thread) PutBytesErr(dst int, bytes int64) error {
	if !t.retriable(dst) {
		t.complete(t.putBytes(dst, bytes, nil))
		t.remoteAck(dst)
		return nil
	}
	h, err := t.putBytesAsyncErr(dst, bytes)
	if err != nil {
		return err
	}
	if err := t.WaitSyncErr(h); err != nil {
		return err
	}
	t.remoteAck(dst)
	return nil
}

// GetBytesErr is GetBytes with fault recovery and typed errors. Like
// PutBytesErr, the fault-free blocking form takes no handle.
func (t *Thread) GetBytesErr(src int, bytes int64) error {
	if !t.retriable(src) {
		t.complete(t.getBytes(src, bytes, nil))
		return nil
	}
	h, err := t.protect("get", src, bytes, func() *fabric.NetOp { return t.getBytes(src, bytes, nil) })
	if err != nil {
		return err
	}
	return t.WaitSyncErr(h)
}

// putBytesAsyncErr issues a payload-free put, retry-armed on protected
// paths. The handle comes from the runtime's free list.
func (t *Thread) putBytesAsyncErr(dst int, bytes int64) (*Handle, error) {
	if !t.retriable(dst) {
		return t.handle(t.putBytes(dst, bytes, nil), nil), nil
	}
	return t.protect("put", dst, bytes, func() *fabric.NetOp { return t.putBytes(dst, bytes, nil) })
}

// PutAsyncTErr is PutAsyncT with typed range errors and a retry-armed
// handle: WaitSyncErr on the result recovers lost messages.
func PutAsyncTErr[T any](t *Thread, s *Shared[T], owner, off int, src []T) (*Handle, error) {
	if err := checkRangeErr(len(s.segs[owner]), off, len(src), "Put"); err != nil {
		return nil, err
	}
	dst := s.segs[owner][off : off+len(src)]
	bytes := int64(len(src) * s.elemBytes)
	if t.retriable(owner) {
		snap := append([]T(nil), src...)
		return t.protect("put", owner, bytes, func() *fabric.NetOp {
			return t.putBytes(owner, bytes, func() { copy(dst, snap) })
		})
	}
	x := s.putXfer(dst, src)
	return t.handle(t.putBytes(owner, bytes, x.apply), x), nil
}

// PutTErr is PutT with fault recovery and typed errors.
func PutTErr[T any](t *Thread, s *Shared[T], owner, off int, src []T) error {
	h, err := PutAsyncTErr(t, s, owner, off, src)
	if err != nil {
		return err
	}
	if err := t.WaitSyncErr(h); err != nil {
		return err
	}
	t.remoteAck(owner)
	return nil
}

// GetAsyncTErr is GetAsyncT with typed range errors and a retry-armed
// handle.
func GetAsyncTErr[T any](t *Thread, s *Shared[T], dst []T, owner, off int) (*Handle, error) {
	if err := checkRangeErr(len(s.segs[owner]), off, len(dst), "Get"); err != nil {
		return nil, err
	}
	src := s.segs[owner][off : off+len(dst)]
	bytes := int64(len(dst) * s.elemBytes)
	if t.retriable(owner) {
		return t.protect("get", owner, bytes, func() *fabric.NetOp {
			return t.getBytes(owner, bytes, func() { copy(dst, src) })
		})
	}
	x := s.getXfer(dst, src)
	return t.handle(t.getBytes(owner, bytes, x.apply), x), nil
}

// GetTErr is GetT with fault recovery and typed errors.
func GetTErr[T any](t *Thread, s *Shared[T], dst []T, owner, off int) error {
	h, err := GetAsyncTErr(t, s, dst, owner, off)
	if err != nil {
		return err
	}
	return t.WaitSyncErr(h)
}

// ReadElemErr is ReadElem with fault recovery and typed errors. A
// fault-free remote read lands in its record's own buffer, so it takes
// neither a handle nor a destination slice.
func ReadElemErr[T any](t *Thread, s *Shared[T], i int) (T, error) {
	owner, local := s.Owner(i), s.LocalIndex(i)
	t.xlateAccess(s.id, i/s.block)
	if t.Castable(owner) {
		t.MemStreamFrom(int64(s.elemBytes), t.rt.places[owner].Socket)
		return s.segs[owner][local], nil
	}
	var zero T
	if err := checkRangeErr(len(s.segs[owner]), local, 1, "Get"); err != nil {
		return zero, err
	}
	if t.retriable(owner) {
		buf := make([]T, 1)
		if err := GetTErr(t, s, buf, owner, local); err != nil {
			return zero, err
		}
		return buf[0], nil
	}
	x := s.getXfer(nil, s.segs[owner][local:local+1])
	x.dst = x.stage(1)
	t.complete(t.getBytes(owner, int64(s.elemBytes), x.apply))
	v := x.dst[0]
	x.recycle()
	return v, nil
}

// WriteElemErr is WriteElem with fault recovery and typed errors. A
// fault-free remote write snapshots v into its record's own buffer, so
// it takes neither a handle nor a source slice.
func WriteElemErr[T any](t *Thread, s *Shared[T], i int, v T) error {
	owner, local := s.Owner(i), s.LocalIndex(i)
	t.xlateAccess(s.id, i/s.block)
	if t.Castable(owner) {
		t.MemStreamFrom(int64(s.elemBytes), t.rt.places[owner].Socket)
		s.segs[owner][local] = v
		return nil
	}
	if err := checkRangeErr(len(s.segs[owner]), local, 1, "Put"); err != nil {
		return err
	}
	if t.retriable(owner) {
		return PutTErr(t, s, owner, local, []T{v})
	}
	one := [1]T{v}
	x := s.putXfer(s.segs[owner][local:local+1], one[:])
	t.complete(t.putBytes(owner, int64(s.elemBytes), x.apply))
	x.recycle()
	t.remoteAck(owner)
	return nil
}
