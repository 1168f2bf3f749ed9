// The pooled record of the one-sided hot path. A put, a get and an
// intra-node copy each run as one staged opRecord implementing
// sim.Action, taken from its cluster's single free list, so a warm
// cluster issues and completes one-sided operations without touching
// the allocator — with fault injection active too: verdicts are fields,
// a duplicate delivery is a second inline leg, and drops simply
// short-circuit the chain.
//
// Lifecycle: a record carries a reference count of in-flight machinery
// (scheduled actions) plus a caller hold. Machinery legs deref as they
// are consumed; the caller hold is dropped by NetOp.Release (or
// internally by the blocking Put wrapper). The record returns to its
// cluster's free list when both reach zero, which makes release always
// safe: releasing early just defers recycling until the last in-flight
// leg drains. Callers that never Release (handles parked in long-lived
// structures) leave their records to the garbage collector.
package fabric

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Record stages. A put starts at opSent, when its payload flow is
// launched; a get starts at opReq, when its request is sent; a memory
// copy starts and ends at opCopy.
const (
	opReq  uint8 = iota // get: request latency elapsed at the source side
	opInj               // get: source injection port free: start the payload flow
	opSent              // payload drained from the source: schedule delivery legs
	opCopy              // memory copy drained: apply and complete
)

// Delivery leg stages.
const (
	legLat uint8 = iota // latency elapsed: check liveness, enter rx queue
	legRx               // receive processing done: apply and complete
)

// opRecord is the pooled record of one PutAsync, GetAsync or
// MemCopyAsync: flow-completion action, per-delivery legs and the
// caller-visible NetOp in a single object. A put or get is described in
// payload terms: the payload streams from the endpoint from to the
// endpoint to, whichever of them initiated it.
type opRecord struct {
	c        *Cluster
	from, to *Endpoint // payload source and destination (nil for a copy)
	size     int64
	lat      sim.Duration // payload delivery latency, including any fault delay
	verdict  Verdict
	isGet    bool // a get has a single completion, at delivery
	apply    func()
	stage    uint8
	op       NetOp
	refs     int32 // in-flight machinery: flow completion + delivery legs
	held     bool  // caller hold (dropped by NetOp.Release)
	legs     [2]deliveryLeg
}

// deliveryLeg is one delivery of a payload: a second leg runs only under
// a duplicate verdict, so chaos schedules stay on the pooled path.
type deliveryLeg struct {
	o     *opRecord
	stage uint8
}

// acquireOp takes a record with one machinery reference (the pending
// first stage) and the caller hold.
func (c *Cluster) acquireOp() *opRecord {
	o := c.ops.Get()
	if o.c == nil {
		o.c = c
		o.op.owner = o
		o.legs[0].o = o
		o.legs[1].o = o
	}
	o.refs = 1
	o.held = true
	return o
}

func (o *opRecord) deref() {
	o.refs--
	if o.refs == 0 && !o.held {
		o.recycle()
	}
}

func (o *opRecord) release() {
	if !o.held {
		return
	}
	o.held = false
	if o.refs == 0 {
		o.recycle()
	}
}

func (o *opRecord) recycle() {
	o.from = nil
	o.to = nil
	o.apply = nil
	o.op.Local.Reset()
	o.op.Remote.Reset()
	o.c.ops.Put(o)
}

// startPayload launches the payload flow from the source's connection
// through its node's egress NIC into the destination node's ingress NIC,
// with the record as the flow's completion action (run inline for an
// empty payload).
func (o *opRecord) startPayload() {
	c := o.c
	o.stage = opSent
	cap := c.Conduit.ConnBW
	if o.from.node == o.to.node {
		// Network loopback still runs through the HCA: it consumes the
		// node's NIC resources, which is exactly what PSHM avoids.
		cap = c.Conduit.LoopbackBW
	}
	c.Net.StartAction(o.size, cap, o, o.from.conn, c.egress[o.from.node], c.ingress[o.to.node])
}

func (o *opRecord) Run() {
	c := o.c
	eng := c.Eng
	switch o.stage {
	case opReq:
		if o.verdict == VerdictDrop || c.NodeDown(o.from.node) {
			// Request lost, or the source crashed before it arrived.
			c.traceFault("drop", o.to.node, o.from.node, o.size)
			o.deref()
			return
		}
		// Request processed at the source endpoint.
		reqDone := o.from.gapRx.Schedule(eng.Now(), o.from.rxOccupancy())
		injStart := o.from.gapTx.Schedule(reqDone, o.from.txOccupancy(o.size))
		o.stage = opInj
		eng.AfterAction(injStart-eng.Now(), o)
	case opInj:
		o.startPayload()
	case opSent:
		// A put's source buffer is reusable once the payload drained;
		// the verdict then decides how many delivery legs (0–2) cross
		// the wire. A get's request-leg drop never reaches this stage.
		if !o.isGet {
			o.op.Local.Fire()
		}
		deliveries := 1
		switch o.verdict {
		case VerdictDrop:
			c.traceFault("drop", o.from.node, o.to.node, o.size)
			o.deref()
			return
		case VerdictDuplicate:
			deliveries = 2
			c.traceFault("dup", o.from.node, o.to.node, o.size)
		case VerdictDelay:
			c.traceFault("delay", o.from.node, o.to.node, o.size)
		}
		o.refs += int32(deliveries)
		for i := 0; i < deliveries; i++ {
			o.legs[i].stage = legLat
			eng.AfterAction(o.lat, &o.legs[i])
		}
		o.deref() // flow leg consumed
	case opCopy:
		if o.apply != nil {
			o.apply()
		}
		o.op.Local.Fire()
		o.op.Remote.Fire()
		o.deref()
	}
}

func (l *deliveryLeg) Run() {
	o := l.o
	c := o.c
	eng := c.Eng
	switch l.stage {
	case legLat:
		if c.NodeDown(o.to.node) {
			// Destination crashed while the payload was in flight.
			c.traceFault("drop", o.from.node, o.to.node, o.size)
			o.deref()
			return
		}
		rxDone := o.to.gapRx.Schedule(eng.Now(), o.to.rxOccupancy())
		l.stage = legRx
		eng.AfterAction(rxDone-eng.Now(), l)
	case legRx:
		if o.apply != nil {
			o.apply()
		}
		eng.TraceInstant("fabric", "deliver", c.Conduit.Name, o.size, 0)
		if c.edges {
			eng.TraceInstant(trace.CatEdge, trace.EdgeDeliver, c.Conduit.Name,
				o.size, trace.PackEndpoints(0, 0, o.from.node, o.to.node))
		}
		o.op.Local.Fire() // a get's single completion; a put's fired at drain
		o.op.Remote.Fire()
		o.deref()
	}
}

// PoolStats sums the cluster's operation pool and the flow engine's.
// At quiescence with every handle released, Outstanding() is zero.
func (c *Cluster) PoolStats() sim.PoolStats {
	return c.ops.Stats().Add(c.Net.PoolStats())
}
