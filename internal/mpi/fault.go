package mpi

import (
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

// anyNodeDown reports whether any node hosting a rank is down — the
// condition that turns a barrier timeout into a crash diagnosis.
func (w *World) anyNodeDown() bool {
	for n := 0; n < w.nodes; n++ {
		if w.Cluster.NodeDown(n) {
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

// commError builds the typed failure of an operation refused at issue.
func (c *Comm) commError(op string, peer, attempts int, cause error) error {
	return &fault.CommError{Op: op, Src: c.Rank, Dst: peer, Attempts: attempts, Err: cause}
}

// fence takes the membership-epoch fence of an operation between this
// rank and peer: the zero fault.Fence without a fault schedule.
func (c *Comm) fence(peer int) fault.Fence {
	return c.w.inj.Fence(c.Rank, peer, c.Place.Node, c.w.places[peer].Node)
}

// retryWait drives a cross-node transfer toward peer through the run's
// deadline ladder, re-issuing it on each timeout, until done fires or a
// crash, a reincarnation or exhausted retries end the wait.
func (c *Comm) retryWait(op string, peer int, bytes int64, done *sim.Event,
	reissue func(attempt int) *sim.Event) error {
	w := c.w
	peerNode := w.places[peer].Node
	return fault.Await(&fault.Wait{
		Op: op, Src: c.Rank, Dst: peer, Bytes: bytes,
		Xfer: w.Cluster.Conduit.ExpectXfer(bytes),
		P:    c.P, Done: done, Fence: c.fence(peer),
		Down:    func() bool { return w.Cluster.NodeDown(c.Place.Node) || w.Cluster.NodeDown(peerNode) },
		Event:   c.FaultEvent,
		Reissue: reissue,
	})
}

// releaseWait waits for a barrier or collective release through the
// deadline ladder, diagnosing a stall with any node down as a crash.
func (c *Comm) releaseWait(op string, ev *sim.Event) error {
	w := c.w
	return fault.Await(&fault.Wait{
		Op: op, Src: c.Rank, Dst: c.Rank, Xfer: w.barCost, P: c.P, Done: ev,
		Down:  w.anyNodeDown,
		Event: c.FaultEvent,
	})
}

// SendErr is Send with fault recovery and typed errors.
func (c *Comm) SendErr(dst int, data []byte) error {
	snap := make([]byte, len(data))
	copy(snap, data)
	return c.send(dst, int64(len(data)), snap)
}

// SendModelErr delivers a payload-free message of the given byte volume
// to rank dst (the model-mode send, with Send's blocking semantics), with
// fault recovery and typed errors.
func (c *Comm) SendModelErr(dst int, bytes int64) error { return c.send(dst, bytes, nil) }

// send posts a message and applies the protocol's blocking rule, failing
// fast when either end is already down. Eager sends complete when the
// payload leaves the source buffer (loss is recovered receiver-side);
// rendezvous sends block for delivery and retransmit on timeout.
func (c *Comm) send(dst int, bytes int64, data []byte) error {
	w := c.w
	if w.faultsOn() && (w.Cluster.NodeDown(c.Place.Node) || w.Cluster.NodeDown(w.places[dst].Node)) {
		return c.commError("send", dst, 0, fault.ErrNodeDown)
	}
	op, msg := c.post(dst, bytes, data)
	if bytes <= EagerThreshold {
		op.WaitLocal(c.P)
		return nil
	}
	if !w.faultsOn() || topo.SameNode(c.Place, w.places[dst]) {
		op.WaitRemote(c.P)
		return nil
	}
	return c.retryWait("send", dst, bytes, &op.Remote, func(int) *sim.Event {
		op = c.transfer(dst, bytes, msg.arrived.Fire)
		return &op.Remote
	})
}

// RecvErr is Recv with fault recovery and typed errors: it gives up when
// the sender's node dies or no matching message appears within the
// deadline ladder, and pulls lost payloads back from the sender after an
// ack timeout.
func (c *Comm) RecvErr(src int) ([]byte, error) {
	w := c.w
	if !w.faultsOn() {
		m := c.match(src)
		m.arrived.Wait(c.P)
		return m.data, nil
	}
	// The matching wait stays outside fault.Wait: it re-diagnoses on
	// every inbox wake, a wake that brings another source's message
	// re-arms the same attempt's deadline, and only expiries count.
	srcNode := w.places[src].Node
	fence := c.fence(src)
	timeouts := 0
	for {
		if m := c.matchNow(src); m != nil {
			return c.awaitPayload(m, src)
		}
		if fence.Stale() {
			return nil, c.commError("recv", src, timeouts, fault.ErrStaleEpoch)
		}
		if w.Cluster.NodeDown(c.Place.Node) || w.Cluster.NodeDown(srcNode) {
			return nil, c.commError("recv", src, timeouts, fault.ErrNodeDown)
		}
		if timeouts > fault.MaxRetries {
			return nil, c.commError("recv", src, timeouts, fault.ErrTimeout)
		}
		if !w.rxQ[c.Rank].WaitTimeout(c.P, "mpi-recv", fault.AttemptTimeout(timeouts, 0)) {
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
	err := c.retryWait("recv", src, m.bytes, m.arrived, func(int) *sim.Event {
		c.ep.GetAsync(c.P, w.eps[src], m.bytes, m.arrived.Fire)
		return m.arrived
	})
	if err != nil {
		return nil, err
	}
	return m.data, nil
}

// BarrierErr is Barrier with failure detection: instead of hanging when
// a rank can never arrive, it gives up after the deadline ladder and
// returns a typed error (ErrNodeDown when a crash explains the stall,
// ErrTimeout otherwise).
func (c *Comm) BarrierErr() error {
	w := c.w
	if !w.faultsOn() {
		c.notifyBarrier().Wait(c.P)
		return nil
	}
	if w.Cluster.NodeDown(c.Place.Node) {
		return c.commError("barrier", c.Rank, 0, fault.ErrNodeDown)
	}
	return c.releaseWait("barrier", c.notifyBarrier())
}
