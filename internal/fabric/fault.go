package fabric

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Verdict is a fault model's decision about one injected message.
type Verdict uint8

const (
	// VerdictDeliver lets the message take its normal path.
	VerdictDeliver Verdict = iota
	// VerdictDrop loses the message after injection: the payload drains
	// from the source (the NIC did the work) but is never applied and the
	// operation's Remote event never fires. Detection is the caller's
	// job, via timeouts.
	VerdictDrop
	// VerdictDuplicate applies the payload twice at the target. Apply
	// closures are idempotent copies, so duplicates cost time, not
	// correctness.
	VerdictDuplicate
	// VerdictDelay adds extra latency before delivery.
	VerdictDelay
)

// FaultModel is the cluster's view of an installed fault injector (see
// internal/fault for the scheduling side). Implementations must draw any
// randomness from the owning engine's seeded source so that decisions
// are a pure function of (seed, schedule, virtual time).
type FaultModel interface {
	// NodeDown reports whether the node is crashed at the current virtual
	// time. Messages to or from a down node are dropped.
	NodeDown(node int) bool
	// MessageVerdict decides the fate of one message from srcNode to
	// dstNode. The returned duration is the extra latency of a
	// VerdictDelay and ignored otherwise.
	MessageVerdict(srcNode, dstNode int, size int64) (Verdict, sim.Duration)
}

// SetFaultModel installs a fault model on the cluster. A nil model (the
// default) keeps every fault hook on its zero-cost path: one pointer
// check per message, no draws, no extra events.
func (c *Cluster) SetFaultModel(fm FaultModel) { c.faults = fm }

// FaultModel reports the installed fault model, or nil.
func (c *Cluster) FaultModel() FaultModel { return c.faults }

// NodeDown reports whether the node is crashed under the installed fault
// model; always false without one.
func (c *Cluster) NodeDown(node int) bool {
	return c.faults != nil && c.faults.NodeDown(node)
}

// LinkByName resolves a cluster-owned link (core/mem/NIC) by its name,
// or nil. Per-endpoint connection links are owned by their endpoints and
// not resolvable here.
func (c *Cluster) LinkByName(name string) *Link {
	for _, set := range [][]*Link{c.cores, c.mem, c.egress, c.ingress} {
		for _, l := range set {
			if l.Name == name {
				return l
			}
		}
	}
	return nil
}

// traceFault emits one recovery-visibility instant (class fault) for an
// injected message fault. Fabric knows nodes, not threads, so the packed
// endpoints carry node coordinates only.
func (c *Cluster) traceFault(name string, srcNode, dstNode int, size int64) {
	if !c.Eng.Tracing() {
		return
	}
	c.Eng.TraceInstant(trace.CatComm, name, trace.ClassFault, size,
		trace.PackEndpoints(0, 0, srcNode, dstNode))
}

// messageVerdict centralizes the per-message injection decision: down
// nodes drop without consuming a random draw, everything else asks the
// model. Call only with a non-nil fault model.
func (c *Cluster) messageVerdict(srcNode, dstNode int, size int64) (Verdict, sim.Duration) {
	if c.faults.NodeDown(srcNode) || c.faults.NodeDown(dstNode) {
		return VerdictDrop, 0
	}
	return c.faults.MessageVerdict(srcNode, dstNode, size)
}
