// Package fabric models the communication and memory hardware of a
// cluster: a fluid-flow network engine (links with capacities; each flow
// advances at the minimum of its own rate cap and its bottleneck link's
// fair share), conduit parameter sets for the paper's interconnects (QDR
// and DDR InfiniBand, Gigabit Ethernet), and a Cluster that wires cores,
// memory controllers, NICs and connection endpoints onto a sim.Engine.
package fabric

import (
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Link is a bandwidth resource (bytes/second) shared by concurrent flows.
// A flow crossing several links advances at min over its links of
// capacity/activeFlows, additionally clipped by the flow's own cap. This
// is the bottleneck-share approximation of max-min fairness used by fluid
// network simulators; it is conservative (never over-allocates a link).
type Link struct {
	Name     string
	Capacity float64 // bytes per second; <= 0 means infinitely fast
	// Beta is the congestion coefficient: with n concurrent flows the
	// link's effective capacity is Capacity / (1 + Beta*(n-1)), modeling
	// goodput degradation under heavy multiplexing (QP/DMA thrash on
	// NICs, incast buffering). Zero means ideal sharing.
	Beta   float64
	active int
	// Down marks a flapped link: flows crossing it stall at rate zero
	// until the link comes back (distinct from Capacity <= 0, which means
	// infinitely fast). Toggled by the fault layer, which must follow any
	// change with Net.Nudge so in-flight flows re-settle. The same holds
	// for Capacity and Beta: the Net only re-derives a link's share when
	// a flow starts or finishes on it, or on Nudge.
	Down bool

	flows []*FlowOp // in-flight flows crossing the link, unordered
	shr   float64   // share() as of the last settling pass that refreshed it
	dirty bool      // queued on Net.dirty for the next settling pass
}

// maxCongestion bounds the congestion divisor: goodput degrades with
// concurrent streams but does not collapse without limit.
const maxCongestion = 2.5

// NewLink returns a link with the given capacity in bytes/second.
func NewLink(name string, capacity float64) *Link {
	return &Link{Name: name, Capacity: capacity}
}

// Active reports the number of flows currently crossing the link.
func (l *Link) Active() int { return l.active }

// share reports the per-flow bandwidth the link currently offers.
func (l *Link) share() float64 {
	if l.Down {
		return 0
	}
	if l.Capacity <= 0 {
		return math.Inf(1)
	}
	n := l.active
	if n < 1 {
		n = 1
	}
	eff := l.Capacity
	if l.Beta > 0 && n > 1 {
		d := 1 + l.Beta*float64(n-1)
		if d > maxCongestion {
			d = maxCongestion
		}
		eff /= d
	}
	return eff / float64(n)
}

// Net is the fluid-flow engine. A flow's rate is a pure function of its
// cap and its links' (active, Capacity, Beta, Down), so a settling pass
// only recomputes the flows crossing a link whose state changed since the
// last pass: a flow start or finish marks the links it crosses dirty, and
// every other flow keeps its rate. Nudge, the signal for an external
// change to link state, forces a full pass. Completions within one
// settling pass batch together and finish in Net.flows order.
//
// The per-flow progress state lives in dense arrays parallel to flows
// (rem, rate; FlowOp.idx is the index), so the per-event progress charge
// and the completion scans stream over contiguous memory.
type Net struct {
	eng   *sim.Engine
	flows []*FlowOp
	rem   []float64 // bytes left per flow
	rate  []float64 // current rate per flow, bytes/second
	last  sim.Time
	// epoch numbers settling passes: it stamps the flows a pass has
	// recomputed (FlowOp.gen) and the one settling callback still live.
	epoch uint64
	dirty []*Link // links whose share changed since the last pass
	full  bool    // next pass re-derives every link and flow (Nudge)
	// drained is raised by account when a flow runs dry; only then does
	// reschedule look for completions.
	drained bool
	// util gates link-occupancy trace events (trace.CatLink, one per
	// active-count change). Resolved once at construction from the
	// engine's tracer: only sinks that opt in via trace.UtilObserver pay
	// for the extra events, and the untraced hot path stays a bool check.
	util bool

	pool  sim.FreeList[FlowOp]  // recycled flows (Transfer / StartAction)
	ticks sim.FreeList[netTick] // recycled settling callbacks
	fin   []*FlowOp             // reschedule's completion scratch

	// settled, when set, runs after every settling pass. It is a test
	// seam: the differential test checks each pass against a from-scratch
	// recompute through it, and forces its reference run into full passes.
	settled func()
}

// NewNet creates a flow engine bound to e.
func NewNet(e *sim.Engine) *Net {
	return &Net{eng: e, util: trace.WantsUtil(e.Tracer())}
}

// Engine reports the owning simulation engine.
func (n *Net) Engine() *sim.Engine { return n.eng }

// Active reports the number of in-flight flows.
func (n *Net) Active() int { return len(n.flows) }

// maxFlowLinks bounds the links one flow may cross. The deepest modeled
// path is connection + egress NIC + ingress NIC; the inline array keeps
// a flow's link set out of the allocator.
const maxFlowLinks = 3

// FlowOp is an in-flight transfer. Wait on Done (a sim.Event) or use
// Wait; OnComplete callbacks run in engine context when the flow drains.
//
// Flows created by Start are handles the caller may retain and poll
// after completion. Flows created by StartAction or Transfer are pooled:
// they return to the Net's free list the moment they drain, so no
// reference to them may escape.
type FlowOp struct {
	// The fields a settling pass reads come first, packed together: a
	// pass over thousands of flows is bound by fetching their records.
	gen      uint64  // epoch of the settling pass that last set its rate
	cap      float64 // per-flow rate cap; <= 0 means uncapped
	linksBuf [maxFlowLinks]*Link
	idx      int32 // index into Net.flows, rem and rate while in flight
	nlinks   int32

	slots  [maxFlowLinks]int32 // position in each link's flows list
	size   int64
	done   sim.Event
	act    sim.Action // pooled completion callback, run before onDone
	onDone []func()
	pooled bool
}

// links is the flow's live link set, a view over the inline array.
func (f *FlowOp) links() []*Link { return f.linksBuf[:f.nlinks] }

// setLinks records the flow's link set. The links must be distinct: a
// link's active count and its flows list hold each flow once.
func (f *FlowOp) setLinks(links []*Link) {
	if len(links) > maxFlowLinks {
		panic("fabric: flow crosses more than maxFlowLinks links")
	}
	for i, l := range links {
		for _, m := range links[:i] {
			if l == m {
				panic("fabric: flow lists the same link twice")
			}
		}
	}
	f.nlinks = int32(copy(f.linksBuf[:], links))
}

// settleRate reports the flow's rate from its cap and its links' cached
// shares: min(cap, shares), with an uncapped flow over only infinite
// links moving instantaneously.
func (f *FlowOp) settleRate() float64 {
	r := math.Inf(1)
	if f.cap > 0 {
		r = f.cap
	}
	for _, l := range f.links() {
		if l.shr < r {
			r = l.shr
		}
	}
	if math.IsInf(r, 1) {
		r = math.MaxFloat64
	}
	return r
}

// Done reports whether the transfer has drained.
func (f *FlowOp) Done() bool { return f.done.Fired() }

// Wait suspends p until the flow drains.
func (f *FlowOp) Wait(p *sim.Proc) { f.done.Wait(p) }

// OnComplete registers fn to run in engine context when the flow drains.
// If the flow already drained, fn runs immediately.
func (f *FlowOp) OnComplete(fn func()) {
	if f.done.Fired() {
		fn()
		return
	}
	f.onDone = append(f.onDone, fn)
}

// Size reports the flow's total bytes.
func (f *FlowOp) Size() int64 { return f.size }

// Start launches a transfer of size bytes across the given links, with an
// optional per-flow rate cap (bytes/second; <= 0 for uncapped). A zero or
// negative size completes immediately. The returned handle may be
// retained and polled after completion, so Start flows are not pooled;
// allocation-free paths use StartAction or Transfer.
func (n *Net) Start(size int64, cap float64, links ...*Link) *FlowOp {
	f := &FlowOp{size: size, cap: cap} //upcvet:poolalloc -- caller-retained handle, pollable after completion; left to the GC by the Start contract
	f.setLinks(links)
	if size <= 0 {
		n.finishFlow(f)
		return f
	}
	n.launch(f)
	return f
}

// StartAction launches a pooled transfer whose completion runs act in
// engine context. The flow returns to the free list the moment it
// drains: no handle escapes, and a warm Net starts and completes the
// flow without touching the allocator. A zero or negative size runs act
// immediately.
func (n *Net) StartAction(size int64, cap float64, act sim.Action, links ...*Link) {
	if size <= 0 {
		if act != nil {
			act.Run()
		}
		return
	}
	f := n.pool.Get()
	f.size = size
	f.cap = cap
	f.act = act
	f.pooled = true
	f.setLinks(links)
	n.launch(f)
}

// launch registers a prepared flow and settles rates. size must be
// positive: the flow cannot complete inside launch, only from a later
// settling callback.
func (n *Net) launch(f *FlowOp) {
	n.account()
	for k, l := range f.links() {
		l.active++
		f.slots[k] = int32(len(l.flows))
		l.flows = append(l.flows, f)
		n.markDirty(l)
		if n.util {
			n.eng.TraceInstant(trace.CatLink, l.Name, "", int64(l.active), l.capacityArg())
		}
	}
	rate := 0.0
	if f.nlinks == 0 {
		// No link will mark it dirty; its rate depends on the cap alone.
		rate = f.settleRate()
	}
	f.idx = int32(len(n.flows))
	n.flows = append(n.flows, f)
	n.rem = append(n.rem, float64(f.size))
	n.rate = append(n.rate, rate)
	n.reschedule()
}

// unlink takes a drained flow off its links: each link's active count
// drops, the flow leaves its flows list (a swap with the last entry),
// and the link is queued for the next settling pass.
func (n *Net) unlink(f *FlowOp) {
	for k, l := range f.links() {
		l.active--
		last := int32(len(l.flows) - 1)
		if s := f.slots[k]; s != last {
			moved := l.flows[last]
			l.flows[s] = moved
			for j, m := range moved.links() {
				if m == l {
					moved.slots[j] = s
					break
				}
			}
		}
		l.flows[last] = nil
		l.flows = l.flows[:last]
		n.markDirty(l)
		if n.util {
			n.eng.TraceInstant(trace.CatLink, l.Name, "", int64(l.active), l.capacityArg())
		}
	}
}

// markDirty queues l for the next settling pass.
func (n *Net) markDirty(l *Link) {
	if !l.dirty {
		l.dirty = true
		n.dirty = append(n.dirty, l)
	}
}

// PoolStats reports the free-list accounting for the net's pooled flows
// and settling callbacks.
func (n *Net) PoolStats() sim.PoolStats {
	return n.pool.Stats().Add(n.ticks.Stats())
}

// capacityArg reports the link capacity rounded to int64 for occupancy
// events (0 for infinitely fast links).
func (l *Link) capacityArg() int64 {
	if l.Capacity <= 0 || math.IsInf(l.Capacity, 1) {
		return 0
	}
	return int64(l.Capacity)
}

// Transfer is the blocking form of Start. The flow record is pooled: the
// completion wake dequeues the waiter before the record is recycled, so
// the caller never observes the reuse.
func (n *Net) Transfer(p *sim.Proc, size int64, cap float64, links ...*Link) {
	if size <= 0 {
		return
	}
	f := n.pool.Get()
	f.size = size
	f.cap = cap
	f.pooled = true
	f.setLinks(links)
	n.launch(f)
	// launch cannot complete a positive-size flow inline, so the wait is
	// always armed before the completion fires.
	f.Wait(p)
}

// Nudge re-settles all in-flight flows after an external change to link
// state (a fault action degrading capacity or toggling Down). It charges
// progress at the old rates up to now, then recomputes every link's share
// and every flow's rate and rebooks the next completion — including
// waking flows that were stalled on a link that just came back.
func (n *Net) Nudge() {
	n.account()
	n.full = true
	n.reschedule()
}

// finishFlow completes f: fire the event (waking blocked Transfers),
// run the pooled completion action, then any OnComplete closures, and
// recycle pooled records. By the time the record returns to the free
// list every waiter has been dequeued by the Fire, so reuse cannot
// disturb them.
func (n *Net) finishFlow(f *FlowOp) {
	f.done.Fire()
	if a := f.act; a != nil {
		f.act = nil
		a.Run()
	}
	for _, fn := range f.onDone {
		fn()
	}
	f.onDone = nil
	if f.pooled {
		for i := range f.linksBuf {
			f.linksBuf[i] = nil
		}
		f.nlinks = 0
		f.pooled = false
		f.done.Reset()
		n.pool.Put(f)
	}
}

// drainEps is the remainder, in bytes, at which a flow counts as drained.
const drainEps = 1e-6

// account charges elapsed progress to all flows at their current rates
// and notes whether any ran dry.
func (n *Net) account() {
	now := n.eng.Now()
	if now > n.last {
		dt := (now - n.last).Seconds()
		rate := n.rate[:len(n.rem)]
		for i := range n.rem {
			n.rem[i] -= rate[i] * dt
			if n.rem[i] <= drainEps {
				n.drained = true
			}
		}
	}
	n.last = now
}

// drain moves the flows that ran dry onto finished, taking them off
// their links, and compacts the rest of the dense arrays in Net.flows
// order: completions run in that order.
func (n *Net) drain(finished []*FlowOp) []*FlowOp {
	kept := 0
	for kept < len(n.rem) && n.rem[kept] > drainEps {
		kept++
	}
	for i := kept; i < len(n.flows); i++ {
		f := n.flows[i]
		if n.rem[i] <= drainEps {
			n.unlink(f)
			finished = append(finished, f)
			continue
		}
		n.flows[kept], n.rem[kept], n.rate[kept] = f, n.rem[i], n.rate[i]
		f.idx = int32(kept)
		kept++
	}
	clear(n.flows[kept:])
	n.flows, n.rem, n.rate = n.flows[:kept], n.rem[:kept], n.rate[:kept]
	return finished
}

// recomputeRates brings every in-flight flow's rate up to date with the
// current link state. It refreshes each dirty link's cached share once,
// then recomputes — once per pass, by the epoch stamp — only the flows
// crossing a dirty link; every other flow's inputs are unchanged, so its
// rate already equals what a full recompute would give. After Nudge the
// pass is full: every flow's links are re-derived and every rate
// recomputed, since the fault layer changes link state behind the Net's
// back.
func (n *Net) recomputeRates() {
	if n.full {
		n.full = false
		for i, f := range n.flows {
			for _, l := range f.links() {
				l.shr = l.share()
			}
			n.rate[i] = f.settleRate()
		}
	} else {
		for _, l := range n.dirty {
			if len(l.flows) > 0 { // an idle link is refreshed when a flow joins
				l.shr = l.share()
			}
		}
		for _, l := range n.dirty {
			for _, f := range l.flows {
				if f.gen != n.epoch {
					f.gen = n.epoch
					n.rate[f.idx] = f.settleRate()
				}
			}
		}
	}
	for _, l := range n.dirty {
		l.dirty = false
	}
	clear(n.dirty)
	n.dirty = n.dirty[:0]
}

// reschedule completes drained flows, recomputes rates, and books the next
// completion callback. Completions within the booking pad of the earliest
// settle together, bounding the number of settling passes a staggered
// drain can trigger while keeping the timing error to a 2^-10 fraction of
// each flow's own duration.
func (n *Net) reschedule() {
	// Detach the completion scratch while it is in use: a completion
	// callback that starts a new flow re-enters reschedule, which must
	// not walk the same backing array. The nested call sees nil and
	// builds its own (cold path); the hot path reuses one buffer.
	finished := n.fin
	n.fin = nil
	// Completion callbacks run at this instant, so they cannot drain
	// another flow: one drain per pass finds every completion.
	if n.drained {
		n.drained = false
		finished = n.drain(finished[:0])
		for _, f := range finished {
			n.finishFlow(f)
		}
		for i := range finished {
			finished[i] = nil
		}
	}
	n.fin = finished[:0]
	n.epoch++
	n.recomputeRates()
	if n.settled != nil {
		n.settled()
	}
	if len(n.flows) == 0 {
		return
	}
	next := math.Inf(1)
	rem := n.rem[:len(n.rate)]
	for i, r := range n.rate {
		if r <= 0 {
			continue
		}
		if t := rem[i] / r; t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		// No flow can progress. Either every remaining flow crosses a Down
		// link (a fault-layer Nudge restores them) or this is a caller bug
		// that surfaces as deadlock.
		return
	}
	dt := sim.FromSeconds(next)
	// Relative quantization: push the wake slightly past the earliest
	// completion so that near-simultaneous completions batch into one
	// settling pass instead of each paying for its own.
	dt += dt >> 10
	if dt < 1 {
		dt = 1
	}
	t := n.ticks.Get()
	t.n = n
	t.epoch = n.epoch
	n.eng.AfterAction(dt, t)
}

// netTick is the pooled settling callback: one is booked per reschedule,
// and a stale epoch means a fresher one has been booked since.
type netTick struct {
	n     *Net
	epoch uint64
}

func (t *netTick) Run() {
	n, epoch := t.n, t.epoch
	t.n = nil
	n.ticks.Put(t)
	if n.epoch != epoch {
		return
	}
	n.account()
	n.reschedule()
}
