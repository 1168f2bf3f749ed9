package fault

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Injector realizes a schedule against one cluster. It implements
// fabric.FaultModel: the fabric consults it on every message, and timed
// actions (crashes, revivals, rule windows) fire as engine events. All
// probability draws come from the engine's seeded PRNG and all times from
// the virtual clock, so a (seed, schedule) pair fully determines every
// injected fault.
type Injector struct {
	eng   *sim.Engine
	cl    *fabric.Cluster
	sched *Schedule
	down  []bool // per node
	rules []rule // message-level rules, in schedule order

	// Membership-epoch state (see DESIGN §15): epoch is the cluster-wide
	// view number, bumped on every crash AND every revival; inc counts
	// each node's completed reincarnations (bumped on revival only).
	// Runtimes stamp one-sided operations with the incarnations of both
	// endpoints at issue time and drop the payload at delivery when
	// either changed, so a node's previous life cannot corrupt its next.
	epoch   int64
	inc     []int64
	onTrans []func(node int, down bool)
}

// rule is one message-level action plus its activation state, toggled by
// the timed events Install books for at_s/until_s.
type rule struct {
	act    *Action
	active bool
}

// Install validates the schedule against the cluster's machine, books
// every timed action on the engine, and registers the injector as the
// cluster's fault model. Call before the engine runs. A nil or empty
// schedule installs nothing and returns a nil injector.
func Install(cl *fabric.Cluster, sched *Schedule) (*Injector, error) {
	if sched == nil || len(sched.Actions) == 0 {
		return nil, nil
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	eng := cl.Eng
	inj := &Injector{eng: eng, cl: cl, sched: sched,
		down: make([]bool, cl.Mach.Nodes), inc: make([]int64, cl.Mach.Nodes)}
	for i := range sched.Actions {
		a := &sched.Actions[i]
		switch a.Op {
		case OpCrash:
			if a.Node >= cl.Mach.Nodes {
				return nil, fmt.Errorf("fault: action %d: crash node %d of %d",
					i, a.Node, cl.Mach.Nodes)
			}
			inj.at(a.At, func() { inj.setDown(a.Node, true) })
			if a.Until > 0 {
				inj.at(a.Until, func() { inj.setDown(a.Node, false) })
			}
		case OpDrop, OpDelay, OpDuplicate:
			idx := len(inj.rules)
			inj.rules = append(inj.rules, rule{act: a})
			inj.at(a.At, func() { inj.rules[idx].active = true })
			if a.Until > 0 {
				inj.at(a.Until, func() { inj.rules[idx].active = false })
			}
		}
	}
	cl.SetFaultModel(inj)
	return inj, nil
}

// at books fn at absolute virtual second s (relative to the current
// clock, which is 0 when Install runs before the engine).
func (inj *Injector) at(s float64, fn func()) {
	inj.eng.After(sim.FromSeconds(s)-sim.Duration(inj.eng.Now()), fn)
}

// setDown records a crash or revival, advances the membership epoch,
// emits the visibility event, and notifies transition observers. Runs in
// engine context at the scheduled virtual time, so every observer sees a
// consistent (down, epoch, incarnation) triple.
func (inj *Injector) setDown(node int, down bool) {
	inj.down[node] = down
	inj.epoch++
	name := "revive"
	if down {
		name = "crash"
	} else {
		inj.inc[node]++
	}
	if inj.eng.Tracing() {
		inj.eng.TraceInstant(trace.CatComm, name, trace.ClassFault, inj.epoch,
			trace.PackEndpoints(0, 0, node, node))
	}
	for _, fn := range inj.onTrans {
		fn(node, down)
	}
}

// Incarnation reports how many completed reincarnations node has had: 0
// for its original life, bumped at each revival. An operation whose
// endpoint incarnations at delivery differ from those at issue is stale.
func (inj *Injector) Incarnation(node int) int64 {
	if node < 0 || node >= len(inj.inc) {
		return 0
	}
	return inj.inc[node]
}

// OnTransition registers an observer of crash/revive transitions, run in
// engine context immediately after the injector's own state flips.
// Runtimes use it to wake threads parked for a revival. Register before
// the engine runs.
func (inj *Injector) OnTransition(fn func(node int, down bool)) {
	inj.onTrans = append(inj.onTrans, fn)
}

// WillRevive reports whether the schedule revives node after the current
// virtual time — i.e. whether a thread parked for the node's rebirth is
// guaranteed a wake-up. Threads must check it before awaiting a revival:
// the revive event is pre-booked at Install, so a true answer means the
// wake is already in the event queue.
func (inj *Injector) WillRevive(node int) bool {
	now := inj.eng.Now()
	for i := range inj.sched.Actions {
		a := &inj.sched.Actions[i]
		if a.Op == OpCrash && a.Node == node && a.Until > 0 &&
			sim.Time(sim.FromSeconds(a.Until)) > now {
			return true
		}
	}
	return false
}

// NodeDown implements fabric.FaultModel.
func (inj *Injector) NodeDown(node int) bool {
	return node >= 0 && node < len(inj.down) && inj.down[node]
}

// MessageVerdict implements fabric.FaultModel: active rules are consulted
// in schedule order and the first whose filter matches and whose
// probability draw succeeds decides the message. Each matching active
// rule consumes exactly one PRNG draw, keeping the stream a pure function
// of the schedule and the deterministic message order.
func (inj *Injector) MessageVerdict(srcNode, dstNode int, size int64) (fabric.Verdict, sim.Duration) {
	for i := range inj.rules {
		r := &inj.rules[i]
		if !r.active {
			continue
		}
		if r.act.Src >= 0 && r.act.Src != srcNode {
			continue
		}
		if r.act.Dst >= 0 && r.act.Dst != dstNode {
			continue
		}
		if inj.eng.Rand().Float64() >= r.act.Prob {
			continue
		}
		switch r.act.Op {
		case OpDrop:
			return fabric.VerdictDrop, 0
		case OpDuplicate:
			return fabric.VerdictDuplicate, 0
		case OpDelay:
			return fabric.VerdictDelay, sim.FromSeconds(r.act.Extra)
		}
	}
	return fabric.VerdictDeliver, 0
}
