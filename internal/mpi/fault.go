package mpi

import (
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Self-healing layer: when a fault schedule is installed (Config.Faults
// or the process default), the library behaves like an MPI stack with a
// reliable transport — lost payloads are pulled back by the receiver
// after an ack timeout (the NACK path), and blocking calls that can never
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

// faultEvent emits one recovery-visibility instant (comm-matrix class
// fault) from this rank toward peer. Free when untraced.
func (c *Comm) faultEvent(name string, peer int, bytes int64) {
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

// releaseWait waits for a barrier or collective release through the
// deadline ladder, diagnosing a stall with any node down as a crash.
func (c *Comm) releaseWait(op string, ev *sim.Event) error {
	w := c.w
	return fault.Await(&fault.Wait{
		Op: op, Src: c.Rank, Dst: c.Rank, Xfer: w.barCost, P: c.P, Done: ev,
		Down:  w.anyNodeDown,
		Event: c.faultEvent,
	})
}

// recv blocks until a message from src arrives and returns its payload
// (MPI_Recv with an explicit source). Under an installed fault schedule
// it pulls lost payloads back from the sender after an ack timeout, and
// returns a typed error when the sender's node dies or no matching
// message appears within the deadline ladder.
func (c *Comm) recv(src int) ([]byte, error) {
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
			c.faultEvent("timeout", src, 0)
			timeouts++
		}
	}
}

// awaitPayload waits for a matched message's payload under the fault
// schedule. A cross-node payload lost to injected drops is pulled from
// the sender's buffer on each deadline-ladder timeout — the simulation's
// equivalent of a NACK-triggered retransmission — until it arrives or a
// crash, a reincarnation or exhausted retries end the wait.
func (c *Comm) awaitPayload(m *message, src int) ([]byte, error) {
	w := c.w
	if topo.SameNode(c.Place, w.places[src]) {
		m.arrived.Wait(c.P)
		return m.data, nil
	}
	srcNode := w.places[src].Node
	err := fault.Await(&fault.Wait{
		Op: "recv", Src: c.Rank, Dst: src, Bytes: m.bytes,
		Xfer: w.Cluster.Conduit.ExpectXfer(m.bytes),
		P:    c.P, Done: m.arrived, Fence: c.fence(src),
		Down:  func() bool { return w.Cluster.NodeDown(c.Place.Node) || w.Cluster.NodeDown(srcNode) },
		Event: c.faultEvent,
		Reissue: func(int) *sim.Event {
			c.ep.GetAsync(c.P, w.eps[src], m.bytes, m.arrived.Fire)
			return m.arrived
		},
	})
	if err != nil {
		return nil, err
	}
	return m.data, nil
}

// barrierErr is Barrier with failure detection: instead of hanging when
// a rank can never arrive, it gives up after the deadline ladder and
// returns a typed error (ErrNodeDown when a crash explains the stall,
// ErrTimeout otherwise).
func (c *Comm) barrierErr() error {
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
