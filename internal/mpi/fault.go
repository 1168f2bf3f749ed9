package mpi

import (
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Self-healing layer: when a fault schedule is installed (Config.Faults
// or the process default), the library behaves like an MPI stack with a
// reliable transport — lost rendezvous payloads are retransmitted by the
// sender, lost eager payloads are pulled back by the receiver after an
// ack timeout (the NACK path), and blocking calls that can never
// complete return typed errors instead of hanging. Without a schedule
// every hook collapses to a nil check.

// faultsOn reports whether this run has a fault schedule installed.
func (w *World) faultsOn() bool { return w.inj != nil }

// nodeDown consults the fault model for node liveness.
func (w *World) nodeDown(node int) bool { return w.Cluster.NodeDown(node) }

// anyNodeDown reports whether any node hosting a rank is down — the
// condition that turns a barrier timeout into a crash diagnosis.
func (w *World) anyNodeDown() bool {
	for n := 0; n < w.nodes; n++ {
		if w.nodeDown(n) {
			return true
		}
	}
	return false
}

// FaultEvent emits one recovery-visibility instant (comm-matrix class
// fault) from this rank toward peer. Free when untraced.
func (c *Comm) FaultEvent(name string, peer int, bytes int64) {
	if !c.w.Eng.Tracing() {
		return
	}
	c.P.TraceInstant(trace.CatComm, name, trace.ClassFault, bytes,
		trace.PackEndpoints(c.Rank, peer, c.Place.Node, c.w.places[peer].Node))
}

// expectXfer estimates the fault-free completion time of a transfer, fed
// into the retry policy's per-attempt timeouts.
func (c *Comm) expectXfer(bytes int64) sim.Duration {
	cond := &c.w.Cluster.Conduit
	return 2*cond.Latency + sim.TransferTime(bytes, cond.ConnBW)
}

// commError builds the typed failure of an exhausted recovery.
func (c *Comm) commError(op string, peer, attempts int, cause error) error {
	return &fault.CommError{Op: op, Src: c.Rank, Dst: peer, Attempts: attempts, Err: cause}
}

// incPair reports the current incarnations of this rank's node and
// peer's node. Only call under an installed fault schedule.
func (c *Comm) incPair(peer int) (int64, int64) {
	w := c.w
	return w.inj.Incarnation(c.Place.Node), w.inj.Incarnation(w.places[peer].Node)
}

// epochStale reports whether an operation issued at incarnations
// (si, pi) straddles a reincarnation of either endpoint node — the
// membership-epoch fence. Stale operations surface as ErrStaleEpoch
// instead of being retried into the node's new life.
func (c *Comm) epochStale(peer int, si, pi int64) bool {
	ni, npi := c.incPair(peer)
	return ni != si || npi != pi
}

// fencePayload wraps a cross-node payload arrival with the
// delivery-time membership-epoch fence: a payload sent before a
// reincarnation of either endpoint is dropped (with a comm-matrix
// "stale-drop" instant) instead of firing into the new life's restored
// state. Fault-free runs pass through untouched.
func (c *Comm) fencePayload(dst int, bytes int64, apply func()) func() {
	w := c.w
	if apply == nil || !w.faultsOn() {
		return apply
	}
	srcN, dstN := c.Place.Node, w.places[dst].Node
	si, di := w.inj.Incarnation(srcN), w.inj.Incarnation(dstN)
	rank, peer := c.Rank, dst
	return func() {
		if w.inj.Incarnation(srcN) != si || w.inj.Incarnation(dstN) != di ||
			w.nodeDown(dstN) {
			if w.Eng.Tracing() {
				w.Eng.TraceInstant(trace.CatComm, "stale-drop", trace.ClassFault,
					bytes, trace.PackEndpoints(rank, peer, srcN, dstN))
			}
			return
		}
		apply()
	}
}

// SendErr is Send with fault recovery and typed errors.
func (c *Comm) SendErr(dst int, data []byte) error {
	if err := c.sendCheck(dst); err != nil {
		return err
	}
	snap := make([]byte, len(data))
	copy(snap, data)
	op, msg := c.post(dst, int64(len(data)), snap)
	return c.finishSend(op, msg, dst)
}

// SendModelErr is SendModel with fault recovery and typed errors.
func (c *Comm) SendModelErr(dst int, bytes int64) error {
	if err := c.sendCheck(dst); err != nil {
		return err
	}
	op, msg := c.post(dst, bytes, nil)
	return c.finishSend(op, msg, dst)
}

// sendCheck fails a send fast when either end is already down.
func (c *Comm) sendCheck(dst int) error {
	if !c.w.faultsOn() {
		return nil
	}
	if c.w.nodeDown(c.Place.Node) || c.w.nodeDown(c.w.places[dst].Node) {
		return c.commError("send", dst, 0, fault.ErrNodeDown)
	}
	return nil
}

// finishSend applies the protocol's blocking rule to a posted message.
// Eager sends complete when the payload leaves the source buffer (loss is
// recovered receiver-side); rendezvous sends block for delivery and
// retransmit on timeout.
func (c *Comm) finishSend(op *fabric.NetOp, msg *message, dst int) error {
	if msg.bytes <= EagerThreshold {
		op.WaitLocal(c.P)
		return nil
	}
	w := c.w
	if !w.faultsOn() || topo.SameNode(c.Place, w.places[dst]) {
		op.WaitRemote(c.P)
		return nil
	}
	rp := w.retry
	xfer := c.expectXfer(msg.bytes)
	dstNode := w.places[dst].Node
	si, di := c.incPair(dst)
	attempts := 1
	for try := 0; ; try++ {
		if op.Remote.WaitTimeout(c.P, rp.AttemptTimeout(try, xfer)) {
			return nil
		}
		c.FaultEvent("timeout", dst, msg.bytes)
		// Epoch fence before the liveness diagnosis: an endpoint that
		// crashed and revived within the window is up again, but this send
		// belongs to its previous incarnation.
		if c.epochStale(dst, si, di) {
			return c.commError("send", dst, attempts, fault.ErrStaleEpoch)
		}
		if w.nodeDown(c.Place.Node) || w.nodeDown(dstNode) {
			return c.commError("send", dst, attempts, fault.ErrNodeDown)
		}
		if try >= rp.MaxRetries {
			return c.commError("send", dst, attempts, fault.ErrTimeout)
		}
		c.P.Advance(rp.BackoffFor(try + 1))
		if c.epochStale(dst, si, di) {
			return c.commError("send", dst, attempts, fault.ErrStaleEpoch)
		}
		if w.nodeDown(c.Place.Node) || w.nodeDown(dstNode) {
			return c.commError("send", dst, attempts, fault.ErrNodeDown)
		}
		c.FaultEvent("retry", dst, msg.bytes)
		op = c.transfer(dst, msg.bytes, msg.arrived.Fire)
		attempts++
	}
}

// RecvErr is Recv with fault recovery and typed errors: it gives up when
// the sender's node dies or no matching message appears within the retry
// policy's deadline ladder, and pulls lost payloads back from the sender
// after an ack timeout.
func (c *Comm) RecvErr(src int) ([]byte, error) {
	w := c.w
	if !w.faultsOn() {
		m := c.match(src)
		m.arrived.Wait(c.P)
		return m.data, nil
	}
	rp := w.retry
	srcNode := w.places[src].Node
	si, pi := c.incPair(src)
	timeouts := 0
	for {
		if m := c.matchNow(src); m != nil {
			return c.awaitPayload(m, src)
		}
		if c.epochStale(src, si, pi) {
			return nil, c.commError("recv", src, timeouts, fault.ErrStaleEpoch)
		}
		if w.nodeDown(c.Place.Node) || w.nodeDown(srcNode) {
			return nil, c.commError("recv", src, timeouts, fault.ErrNodeDown)
		}
		if timeouts > rp.MaxRetries {
			return nil, c.commError("recv", src, timeouts, fault.ErrTimeout)
		}
		if !w.rxQ[c.Rank].WaitTimeout(c.P, "mpi-recv", rp.AttemptTimeout(timeouts, 0)) {
			c.FaultEvent("timeout", src, 0)
			timeouts++
		}
	}
}

// awaitPayload waits for a matched message's payload. A payload lost to
// injected drops is recovered by pulling it from the sender's buffer —
// the simulation's equivalent of a NACK-triggered retransmission.
func (c *Comm) awaitPayload(m *message, src int) ([]byte, error) {
	w := c.w
	if !w.faultsOn() || topo.SameNode(c.Place, w.places[src]) {
		m.arrived.Wait(c.P)
		return m.data, nil
	}
	rp := w.retry
	xfer := c.expectXfer(m.bytes)
	srcNode := w.places[src].Node
	si, pi := c.incPair(src)
	attempts := 1
	for try := 0; ; try++ {
		if m.arrived.WaitTimeout(c.P, rp.AttemptTimeout(try, xfer)) {
			return m.data, nil
		}
		c.FaultEvent("timeout", src, m.bytes)
		if c.epochStale(src, si, pi) {
			return nil, c.commError("recv", src, attempts, fault.ErrStaleEpoch)
		}
		if w.nodeDown(c.Place.Node) || w.nodeDown(srcNode) {
			return nil, c.commError("recv", src, attempts, fault.ErrNodeDown)
		}
		if try >= rp.MaxRetries {
			return nil, c.commError("recv", src, attempts, fault.ErrTimeout)
		}
		c.P.Advance(rp.BackoffFor(try + 1))
		if c.epochStale(src, si, pi) {
			return nil, c.commError("recv", src, attempts, fault.ErrStaleEpoch)
		}
		if w.nodeDown(c.Place.Node) || w.nodeDown(srcNode) {
			return nil, c.commError("recv", src, attempts, fault.ErrNodeDown)
		}
		c.FaultEvent("retry", src, m.bytes)
		c.ep.GetAsync(c.P, w.eps[src], m.bytes, m.arrived.Fire)
		attempts++
	}
}

// BarrierErr is Barrier with failure detection: instead of hanging when
// a rank can never arrive, it gives up after the retry policy's deadline
// ladder and returns a typed error (ErrNodeDown when a crash explains
// the stall, ErrTimeout otherwise).
func (c *Comm) BarrierErr() error {
	w := c.w
	if !w.faultsOn() {
		c.Barrier()
		return nil
	}
	if w.nodeDown(c.Place.Node) {
		return c.commError("barrier", c.Rank, 0, fault.ErrNodeDown)
	}
	ev := c.notifyBarrier()
	return c.waitLadder(ev, "barrier", w.barCost)
}

// waitLadder drives a collective release event through the deadline
// ladder, diagnosing crashes.
func (c *Comm) waitLadder(ev *sim.Event, op string, cost sim.Duration) error {
	w := c.w
	rp := w.retry
	attempts := 0
	for try := 0; try <= rp.MaxRetries; try++ {
		attempts++
		if ev.WaitTimeout(c.P, rp.AttemptTimeout(try, cost)) {
			return nil
		}
		c.FaultEvent("timeout", c.Rank, 0)
		if w.nodeDown(c.Place.Node) || w.anyNodeDown() {
			return c.commError(op, c.Rank, attempts, fault.ErrNodeDown)
		}
	}
	return c.commError(op, c.Rank, attempts, fault.ErrTimeout)
}
