package upc

import (
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Self-healing layer: when a fault schedule is installed (Config.Faults
// or the process default), one-sided operations on network paths gain
// virtual-time timeouts with capped exponential backoff and bounded
// retries, barriers and collectives release on the live threads alone,
// and applications can poll Failed/Alive and Retire crashed threads so
// the survivors finish the run. Without a schedule every hook collapses
// to a nil check and the runtime behaves exactly as before.

// faultsOn reports whether this run has a fault schedule installed.
func (rt *Runtime) faultsOn() bool { return rt.inj != nil }

// FaultsOn reports whether a fault schedule is installed on this run.
func (rt *Runtime) FaultsOn() bool { return rt.faultsOn() }

// RetryPolicy reports the run's active retry policy (zero when no fault
// schedule is installed).
func (rt *Runtime) RetryPolicy() fault.RetryPolicy { return rt.retry }

// LiveThreads reports how many threads have not retired.
func (rt *Runtime) LiveThreads() int { return rt.Cfg.Threads - rt.nDead }

// Failed reports whether this thread's own node is crashed under the
// run's fault schedule. Fault-tolerant applications poll it at work-loop
// boundaries and Retire when it reports true.
func (t *Thread) Failed() bool {
	return t.rt.faultsOn() && t.rt.Cluster.NodeDown(t.Place.Node)
}

// Alive reports whether peer is usable as a communication target: it has
// not retired and its node is up. Always true without a fault schedule.
func (t *Thread) Alive(peer int) bool {
	rt := t.rt
	if !rt.faultsOn() {
		return true
	}
	return !rt.dead[peer] && !rt.Cluster.NodeDown(rt.places[peer].Node)
}

// Retire removes this thread from the SPMD collective population after
// its node crashed: the in-progress barrier generation and collective
// slots re-check for release on the survivors alone, and future ones
// never wait for it. Idempotent; the thread must not issue further
// barriers or collectives afterwards.
func (t *Thread) Retire() {
	rt := t.rt
	if rt.dead[t.ID] {
		return
	}
	rt.dead[t.ID] = true
	rt.nDead++
	t.FaultEvent("retire", t.ID, 0)
	rt.bar.maybeRelease(rt, t.ID)
	for _, slot := range rt.colls {
		if slot != nil && !slot.fired && slot.combine != nil && slot.complete(rt) {
			slot.fire(rt, t.ID)
		}
	}
}

// ReviveScheduled reports whether the fault schedule revives this
// thread's node after the current virtual time — i.e. whether parking
// in AwaitRevive is guaranteed a wake-up. A thread whose node died for
// good sees false and should Retire permanently.
func (t *Thread) ReviveScheduled() bool {
	rt := t.rt
	return rt.faultsOn() && rt.inj.WillRevive(t.Place.Node)
}

// AwaitRevive parks the thread until its node's scheduled revival.
// Check ReviveScheduled first: without a booked revival the park would
// never wake. Returns immediately when the node is up.
func (t *Thread) AwaitRevive() {
	rt := t.rt
	if !rt.faultsOn() {
		return
	}
	node := t.Place.Node
	for rt.Cluster.NodeDown(node) {
		rt.reviveQ[node].Wait(t.P, "upc-revive")
	}
}

// Rejoin re-admits a retired thread after its node's revival with zero
// state: the dead mark clears (barrier membership includes it again
// from the next generation) and the rejoin edge is emitted for the
// causality analyzer. The thread must rebuild its own data and re-enter
// the application's membership structures (steal rings, probe sets)
// itself. Collective slots opened while the thread was dead are not
// replayed — rejoined threads must not lag into old collective
// sequences. Returns the restored byte volume, which is 0: nothing is
// restored. No-op unless the thread actually retired.
func (t *Thread) Rejoin() int64 {
	rt := t.rt
	if !rt.faultsOn() || !rt.dead[t.ID] {
		return 0
	}
	rt.dead[t.ID] = false
	rt.nDead--
	t.FaultEvent("rejoin", t.ID, 0)
	if rt.edges {
		t.P.TraceInstant(trace.CatEdge, trace.EdgeRejoin, "", 0,
			trace.PackEndpoints(t.ID, t.ID, rt.places[t.ID].Node, t.Place.Node))
	}
	return 0
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

// networkPath reports whether a transfer to peer crosses the NIC (the
// conduit or its loopback) — the paths where messages can be lost.
// Shared-memory copies are not subject to message faults.
func (t *Thread) networkPath(peer int) bool {
	if peer == t.ID {
		return false
	}
	return !(topo.SameNode(t.Place, t.rt.places[peer]) && t.rt.Cfg.sharedMem())
}

// retriable reports whether an op toward peer needs timeout/retry
// protection: only network paths under an installed fault schedule.
func (t *Thread) retriable(peer int) bool {
	return t.rt.faultsOn() && t.networkPath(peer)
}

// nodeInc reports the current incarnation of peer's node. Only call
// under an installed fault schedule.
func (t *Thread) nodeInc(peer int) int64 {
	return t.rt.inj.Incarnation(t.rt.places[peer].Node)
}

// epochStale reports whether an op issued when this thread's node and
// peer's node had incarnations (si, pi) now straddles a reincarnation
// of either end — the membership-epoch fence.
func (t *Thread) epochStale(peer int, si, pi int64) bool {
	return t.nodeInc(t.ID) != si || t.nodeInc(peer) != pi
}

// fenceApply wraps a network payload apply with the delivery-time
// membership-epoch fence: if either endpoint node was reincarnated
// since issue, or the destination is down at delivery, the payload is
// dropped (with a comm-matrix "stale-drop" instant) instead of
// corrupting the new life's state. Fault-free runs and
// payload-free transfers pass through untouched, keeping the hot path
// allocation-free.
func (t *Thread) fenceApply(peer int, bytes int64, apply func()) func() {
	rt := t.rt
	if apply == nil || !rt.faultsOn() {
		return apply
	}
	srcN, dstN := t.Place.Node, rt.places[peer].Node
	si, pi := rt.inj.Incarnation(srcN), rt.inj.Incarnation(dstN)
	tid, pid := t.ID, peer
	return func() {
		if rt.inj.Incarnation(srcN) != si || rt.inj.Incarnation(dstN) != pi ||
			rt.Cluster.NodeDown(dstN) {
			if rt.Eng.Tracing() {
				rt.Eng.TraceInstant(trace.CatComm, "stale-drop", trace.ClassFault,
					bytes, trace.PackEndpoints(tid, pid, srcN, dstN))
			}
			return
		}
		apply()
	}
}

// expectXfer estimates the fault-free completion time of a transfer, fed
// into the retry policy's per-attempt timeouts so big payloads on slow
// conduits are not declared lost while still streaming.
func (t *Thread) expectXfer(bytes int64) sim.Duration {
	cond := &t.rt.Cluster.Conduit
	return 2*cond.Latency + sim.TransferTime(bytes, cond.ConnBW)
}

// commError builds the typed failure of an exhausted recovery.
func (t *Thread) commError(op string, peer, attempts int, cause error) error {
	return &fault.CommError{Op: op, Src: t.ID, Dst: peer, Attempts: attempts, Err: cause}
}

// reliableWait drives an already-issued network op to completion under
// the retry policy: each attempt gets a growing virtual-time deadline;
// on timeout the op is re-issued after a capped exponential backoff
// (payload applies are idempotent copies, so a late original delivery or
// an injected duplicate is harmless). Returns the op that completed, or
// a typed CommError when retries are exhausted or a node died.
func (t *Thread) reliableWait(opName string, peer int, bytes int64,
	op *fabric.NetOp, reissue func() *fabric.NetOp, si, pi int64) (*fabric.NetOp, error) {
	rp := t.rt.retry
	xfer := t.expectXfer(bytes)
	attempts := 1
	for try := 0; ; try++ {
		if op.Remote.WaitTimeout(t.P, rp.AttemptTimeout(try, xfer)) {
			// The fabric-level completion fired, but if an endpoint was
			// reincarnated since issue the delivery-time fence dropped the
			// payload — success here would be a lie.
			if t.epochStale(peer, si, pi) {
				op.Release()
				return nil, t.commError(opName, peer, attempts, fault.ErrStaleEpoch)
			}
			return op, nil
		}
		t.FaultEvent("timeout", peer, bytes)
		// Epoch fence before the liveness checks: an endpoint that crashed
		// AND revived within the timeout window is alive again, but the op
		// belongs to its previous incarnation — retrying it into the new
		// life would deliver stale data. Typed as ErrStaleEpoch so callers
		// reissue fresh operations instead.
		if t.epochStale(peer, si, pi) {
			op.Release()
			return nil, t.commError(opName, peer, attempts, fault.ErrStaleEpoch)
		}
		if t.Failed() || !t.Alive(peer) {
			op.Release()
			return nil, t.commError(opName, peer, attempts, fault.ErrNodeDown)
		}
		if try >= rp.MaxRetries {
			op.Release()
			return nil, t.commError(opName, peer, attempts, fault.ErrTimeout)
		}
		t.P.Advance(rp.BackoffFor(try + 1))
		// The peer may have crashed (or crossed a reincarnation) while we
		// backed off.
		if t.epochStale(peer, si, pi) {
			op.Release()
			return nil, t.commError(opName, peer, attempts, fault.ErrStaleEpoch)
		}
		if t.Failed() || !t.Alive(peer) {
			op.Release()
			return nil, t.commError(opName, peer, attempts, fault.ErrNodeDown)
		}
		t.FaultEvent("retry", peer, bytes)
		if t.rt.edges {
			t.P.TraceInstant(trace.CatEdge, trace.EdgeRetry, opName, int64(attempts),
				trace.PackEndpoints(t.ID, peer, t.Place.Node, t.rt.places[peer].Node))
		}
		// Abandon the timed-out op before reissuing: dropping the hold lets
		// its pooled record recycle once any in-flight legs (a delayed
		// original, an injected duplicate) drain. Nothing reads it again —
		// the handle is repointed at the reissue.
		op.Release()
		op = reissue()
		attempts++
	}
}

// armRetry attaches the retry context to a freshly issued async handle
// when the op needs protection; WaitSync then recovers lost messages
// transparently. No-op (and no allocation is retained) otherwise.
func (t *Thread) armRetry(h *Handle, opName string, peer int, bytes int64,
	reissue func() *fabric.NetOp) {
	if !t.retriable(peer) {
		return
	}
	h.t, h.opName, h.peer, h.bytes, h.reissue = t, opName, peer, bytes, reissue
	h.srcInc, h.dstInc = t.nodeInc(t.ID), t.nodeInc(peer)
}

// WaitSyncErr blocks until the asynchronous operation completes,
// recovering lost messages under the run's retry policy when the handle
// was issued on a protected path. It is the error-returning form of
// WaitSync.
func (t *Thread) WaitSyncErr(h *Handle) error {
	if h.op == nil {
		return nil
	}
	if h.reissue == nil {
		op := h.op
		h.op = nil
		op.WaitRemote(t.P)
		op.Release()
		return nil
	}
	op, err := t.reliableWait(h.opName, h.peer, h.bytes, h.op, h.reissue, h.srcInc, h.dstInc)
	h.reissue = nil
	h.op = nil // the wait consumed the operation either way
	if err != nil {
		return err
	}
	op.Release()
	return nil
}

// ---- Error-returning one-sided operations ----
//
// The Err variants recover from injected message loss on network paths
// and surface unrecoverable failures (crashed nodes, exhausted retries,
// out-of-range accesses) as typed errors. The legacy void forms delegate
// to them and panic on error, preserving their historical contract.

// PutBytesErr is PutBytes with fault recovery and typed errors. On a
// fault-free run the blocking form never materializes a handle or retry
// context: it rides the pooled fabric record end to end, allocation-free.
func (t *Thread) PutBytesErr(dst int, bytes int64) error {
	if !t.retriable(dst) {
		op := t.putBytes(dst, bytes, nil)
		op.WaitRemote(t.P)
		op.Release()
		t.remoteAck(dst)
		return nil
	}
	h, err := t.putBytesAsyncErr(dst, bytes, nil)
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
// PutBytesErr, the fault-free blocking form is allocation-free.
func (t *Thread) GetBytesErr(src int, bytes int64) error {
	if !t.retriable(src) {
		op := t.getBytes(src, bytes, nil)
		op.WaitRemote(t.P)
		op.Release()
		return nil
	}
	if t.Failed() || !t.Alive(src) {
		return t.commError("get", src, 0, fault.ErrNodeDown)
	}
	issue := func() *fabric.NetOp { return t.getBytes(src, bytes, nil) }
	h := &Handle{op: issue()}
	t.armRetry(h, "get", src, bytes, issue)
	return t.WaitSyncErr(h)
}

// putBytesAsyncErr issues a protected put, failing fast when either end
// is already down. The async contract hands the caller an owned Handle,
// so this path allocates exactly that handle on fault-free runs.
func (t *Thread) putBytesAsyncErr(dst int, bytes int64, apply func()) (*Handle, error) {
	if !t.retriable(dst) {
		return &Handle{op: t.putBytes(dst, bytes, apply)}, nil
	}
	if t.Failed() || !t.Alive(dst) {
		return nil, t.commError("put", dst, 0, fault.ErrNodeDown)
	}
	issue := func() *fabric.NetOp { return t.putBytes(dst, bytes, apply) }
	h := &Handle{op: issue()}
	t.armRetry(h, "put", dst, bytes, issue)
	return h, nil
}

// PutAsyncTErr is PutAsyncT with typed range errors and a retry-armed
// handle: WaitSyncErr on the result recovers lost messages.
func PutAsyncTErr[T any](t *Thread, s *Shared[T], owner, off int, src []T) (*Handle, error) {
	if err := checkRangeErr(len(s.segs[owner]), off, len(src), "Put"); err != nil {
		return nil, err
	}
	snap := make([]T, len(src))
	copy(snap, src)
	dst := s.segs[owner]
	return t.putBytesAsyncErr(owner, int64(len(src)*s.elemBytes), func() {
		copy(dst[off:], snap)
	})
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
	if t.retriable(owner) && (t.Failed() || !t.Alive(owner)) {
		return nil, t.commError("get", owner, 0, fault.ErrNodeDown)
	}
	src := s.segs[owner]
	n := len(dst)
	issue := func() *fabric.NetOp {
		return t.getBytes(owner, int64(n*s.elemBytes), func() {
			copy(dst, src[off:off+n])
		})
	}
	h := &Handle{op: issue()}
	t.armRetry(h, "get", owner, int64(n*s.elemBytes), issue)
	return h, nil
}

// GetTErr is GetT with fault recovery and typed errors.
func GetTErr[T any](t *Thread, s *Shared[T], dst []T, owner, off int) error {
	h, err := GetAsyncTErr(t, s, dst, owner, off)
	if err != nil {
		return err
	}
	return t.WaitSyncErr(h)
}

// ReadElemErr is ReadElem with fault recovery and typed errors.
func ReadElemErr[T any](t *Thread, s *Shared[T], i int) (T, error) {
	owner, local := s.Owner(i), s.LocalIndex(i)
	t.xlateAccess(s.id, i/s.block)
	if t.Castable(owner) {
		t.MemStreamFrom(int64(s.elemBytes), t.rt.places[owner].Socket)
		return s.segs[owner][local], nil
	}
	buf := make([]T, 1)
	if err := GetTErr(t, s, buf, owner, local); err != nil {
		var zero T
		return zero, err
	}
	return buf[0], nil
}

// WriteElemErr is WriteElem with fault recovery and typed errors.
func WriteElemErr[T any](t *Thread, s *Shared[T], i int, v T) error {
	owner, local := s.Owner(i), s.LocalIndex(i)
	t.xlateAccess(s.id, i/s.block)
	if t.Castable(owner) {
		t.MemStreamFrom(int64(s.elemBytes), t.rt.places[owner].Socket)
		s.segs[owner][local] = v
		return nil
	}
	return PutTErr(t, s, owner, local, []T{v})
}
