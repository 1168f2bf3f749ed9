// Package fabric models the communication and memory hardware of a
// cluster: a fluid-flow network engine (links with capacities; each flow
// advances at the minimum of its own rate cap and its bottleneck link's
// fair share), conduit parameter sets for the paper's interconnects (QDR
// and DDR InfiniBand, Gigabit Ethernet), and a Cluster that wires cores,
// memory controllers, NICs and connection endpoints onto a sim.Engine.
package fabric

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Link is a bandwidth resource (bytes/second) shared by concurrent flows.
// A flow crossing several links advances at min over its links of
// capacity/activeFlows, additionally clipped by the flow's own cap. This
// is the bottleneck-share approximation of max-min fairness used by fluid
// network simulators; it is conservative (never over-allocates a link).
// Capacity and Beta are fixed once flows cross the link: the Net caches
// each link's share and re-derives it only in the settling pass after the
// link's active count changes.
type Link struct {
	Name     string
	Capacity float64 // bytes per second; <= 0 means infinitely fast
	// Beta is the congestion coefficient: with n concurrent flows the
	// link's effective capacity is Capacity / (1 + Beta*(n-1)), modeling
	// goodput degradation under heavy multiplexing (QP/DMA thrash on
	// NICs, incast buffering). Zero means ideal sharing.
	Beta   float64
	active int

	classes []*flowClass // live flow classes crossing the link, unordered
	shr     float64      // share() as of the last settling pass that refreshed it
	dirty   bool         // queued on Net.dirty for the next settling pass
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
// cap and its links' (active, Capacity, Beta), so in-flight flows are
// grouped into flow classes keyed by (link list, cap): every flow of a
// class has the same positive rate, and the Net settles classes, not
// flows. A settling pass recomputes only the classes crossing a link
// whose active count changed since the last pass: a flow start or finish
// marks the links it crosses dirty, and every other class keeps its rate.
//
// Each class keeps its flows in a min-heap on remaining bytes, so the
// next completion is the least rem[0]/rate over the live classes, and a
// drain pops only the flows that ran dry. Completions found in one pass
// finish in launch order (flowOp.seq). A class whose last flow finishes
// is parked: it leaves Net.classes and its links' class lists but stays
// in byKey, so a key that comes back pays no allocation.
//
// Flow starts and drains charge progress and complete dry flows at once,
// but the settling pass — rates, next-completion scan, booking — runs
// once per virtual instant, however many starts the instant brings. One
// re-armable engine timer carries the Net's single settling callback:
// armed for the end of the instant while a pass is due, then for the
// next completion.
type Net struct {
	eng     *sim.Engine
	classes []*flowClass           // live classes (at least one flow), unordered
	byKey   map[flowKey]*flowClass // every class launched so far, live or parked
	recent  *flowClass             // the last launch's class: a repeated key skips the map
	slab    []flowClass            // unused classes, allocated classSlab at a time
	flows   int                    // flows in flight, over all classes
	seq     uint64                 // launch counter; flowOp.seq orders completions
	last    sim.Time
	// epoch numbers settling passes: it stamps the classes a pass has
	// recomputed (flowClass.gen).
	epoch uint64
	dirty []*Link // links whose share changed since the last pass
	full  bool    // next pass re-derives every live link and class
	// tick is the settling callback. pending marks it armed for the end
	// of the instant (settle); otherwise it is armed, if at all, for the
	// next completion. resv is the engine sequence number the next
	// completion booking takes, 0 when no class is live.
	tick    *sim.Timer
	pending bool
	resv    uint64
	// drained is raised by account when a flow runs dry; only then does
	// reschedule look for completions.
	drained bool
	// util gates link-occupancy trace events (trace.CatLink, one per
	// active-count change). Resolved once at construction from the
	// engine's tracer: only sinks that opt in via trace.UtilObserver pay
	// for the extra events, and the untraced hot path stays a bool check.
	util bool

	pool sim.FreeList[flowOp] // recycled flows
	fin  []*flowOp            // reschedule's completion scratch

	// settled, when set, runs after every settling pass. It is a test
	// seam: the differential test checks each pass against a from-scratch
	// recompute through it, and forces its reference run into full passes.
	settled func()
}

// NewNet creates a flow engine bound to e.
func NewNet(e *sim.Engine) *Net {
	n := &Net{eng: e, byKey: make(map[flowKey]*flowClass), util: trace.WantsUtil(e.Tracer())}
	n.tick = e.NewTimer(netTick{n})
	return n
}

// Engine reports the owning simulation engine.
func (n *Net) Engine() *sim.Engine { return n.eng }

// Active reports the number of in-flight flows.
func (n *Net) Active() int { return n.flows }

// maxFlowLinks bounds the links one flow may cross. The deepest modeled
// path is connection + egress NIC + ingress NIC; the inline array keeps
// a flow's link set out of the allocator.
const maxFlowLinks = 3

// flowKey identifies a flow class: the links a flow crosses, in the
// order given, and its rate cap, with every uncapped flow at cap 0.
type flowKey struct {
	links [maxFlowLinks]*Link
	cap   float64
}

// classKey builds the key of a flow with the given cap and links. The
// links must be distinct: a link's active count holds each flow once.
func classKey(cap float64, links []*Link) flowKey {
	if len(links) > maxFlowLinks {
		panic("fabric: flow crosses more than maxFlowLinks links")
	}
	var k flowKey
	for i, l := range links {
		for _, m := range links[:i] {
			if l == m {
				panic("fabric: flow lists the same link twice")
			}
		}
		k.links[i] = l
	}
	if cap > 0 {
		k.cap = cap
	}
	return k
}

// classSlab is how many flow classes a Net allocates at once. Classes
// are never freed, so carving them from slabs costs one allocation per
// classSlab keys and keeps them adjacent in memory.
const classSlab = 32

// flowClass is the in-flight flows of one flowKey. They share one rate,
// and their remaining bytes form a min-heap: rem[0] is the class's next
// completion. The heap survives the progress charge, which subtracts the
// same rate*dt from every entry: IEEE rounding is monotone, so a <= b
// implies fl(a-d) <= fl(b-d).
type flowClass struct {
	// The progress charge and the completion scan read only the first
	// cache line. rem and flows start on the inline one-entry
	// arrays: most classes never hold two flows at once, and those keep
	// their heap inside the class.
	rate  float64   // bytes/second, shared by every flow of the class
	rem   []float64 // bytes left per flow, a min-heap parallel to flows
	rem0  [1]float64
	flows []*flowOp

	gen    uint64 // epoch of the settling pass that last set rate
	flow0  [1]*flowOp
	key    flowKey
	nlinks int32
	idx    int32               // index into Net.classes while live
	slots  [maxFlowLinks]int32 // position in each link's classes list while live
}

// links is the class's link set, a view over the key.
func (c *flowClass) links() []*Link { return c.key.links[:c.nlinks] }

// settleRate reports the class's rate from its cap and its links' cached
// shares: min(cap, shares), with an uncapped class over only infinite
// links moving instantaneously.
func (c *flowClass) settleRate() float64 {
	r := math.Inf(1)
	if c.key.cap > 0 {
		r = c.key.cap
	}
	for _, l := range c.links() {
		if l.shr < r {
			r = l.shr
		}
	}
	if math.IsInf(r, 1) {
		r = math.MaxFloat64
	}
	return r
}

// push adds f with rem bytes left to the heap.
func (c *flowClass) push(f *flowOp, rem float64) {
	i := len(c.rem)
	c.rem = append(c.rem, rem)
	c.flows = append(c.flows, f)
	for i > 0 {
		p := (i - 1) / 2
		if c.rem[p] <= rem {
			break
		}
		c.rem[i], c.flows[i] = c.rem[p], c.flows[p]
		i = p
	}
	c.rem[i], c.flows[i] = rem, f
}

// pop removes and returns the flow with the least bytes left.
func (c *flowClass) pop() *flowOp {
	top := c.flows[0]
	last := len(c.rem) - 1
	rem, f := c.rem[last], c.flows[last]
	c.flows[last] = nil
	c.rem, c.flows = c.rem[:last], c.flows[:last]
	if last == 0 {
		return top
	}
	i := 0
	for {
		m := 2*i + 1
		if m >= last {
			break
		}
		if r := m + 1; r < last && c.rem[r] < c.rem[m] {
			m = r
		}
		if rem <= c.rem[m] {
			break
		}
		c.rem[i], c.flows[i] = c.rem[m], c.flows[m]
		i = m
	}
	c.rem[i], c.flows[i] = rem, f
	return top
}

// flowOp is an in-flight transfer. Its rate and remaining bytes live in
// its flow class. Every flow is pooled: it returns to the Net's free list
// the moment it drains, so no reference to it escapes the Net.
type flowOp struct {
	class *flowClass // the class the flow settles with while in flight
	seq   uint64     // launch order: completions in one pass run by seq
	done  sim.Event  // wakes a blocked Transfer
	act   sim.Action // StartAction's completion callback
}

// StartAction launches a transfer of size bytes across the given links,
// with an optional per-flow rate cap (bytes/second; <= 0 for uncapped),
// whose completion runs act in engine context. A warm Net starts and
// completes the flow without touching the allocator. A zero or negative
// size runs act immediately.
func (n *Net) StartAction(size int64, cap float64, act sim.Action, links ...*Link) {
	if size <= 0 {
		if act != nil {
			act.Run()
		}
		return
	}
	n.launch(size, classKey(cap, links), act)
}

// Transfer is the blocking form of StartAction: it suspends p until the
// flow drains. The completion wake dequeues the waiter before the flow
// record is recycled, so the caller never observes the reuse.
func (n *Net) Transfer(p *sim.Proc, size int64, cap float64, links ...*Link) {
	if size <= 0 {
		return
	}
	// launch cannot complete a positive-size flow inline, so the wait is
	// always armed before the completion fires.
	n.launch(size, classKey(cap, links), nil).done.Wait(p)
}

// launch registers a new flow of size bytes, completing with act, in the
// class of key k, arranges the settling pass and returns the flow. size must be
// positive: the flow cannot complete inside launch, only from a later
// settling callback.
func (n *Net) launch(size int64, k flowKey, act sim.Action) *flowOp {
	n.account()
	c := n.recent
	if c == nil || c.key != k {
		c = n.byKey[k]
		if c == nil {
			if len(n.slab) == 0 {
				n.slab = make([]flowClass, classSlab)
			}
			c = &n.slab[0]
			n.slab = n.slab[1:]
			c.key = k
			c.rem, c.flows = c.rem0[:0], c.flow0[:0]
			for c.nlinks < maxFlowLinks && k.links[c.nlinks] != nil {
				c.nlinks++
			}
			n.byKey[k] = c
		}
		n.recent = c
	}
	if len(c.flows) == 0 {
		n.unpark(c)
	}
	n.seq++
	f := n.pool.Get()
	f.class, f.seq, f.act = c, n.seq, act
	c.push(f, float64(size))
	n.flows++
	for _, l := range c.links() {
		l.active++
		n.markDirty(l)
		if n.util {
			n.eng.TraceInstant(trace.CatLink, l.Name, "", int64(l.active), l.capacityArg())
		}
	}
	if c.nlinks == 0 {
		// No link will mark it dirty; its rate depends on the cap alone.
		c.rate = c.settleRate()
	}
	n.reschedule()
	return f
}

// unpark makes an idle class live: it joins Net.classes and its links'
// class lists.
func (n *Net) unpark(c *flowClass) {
	c.idx = int32(len(n.classes))
	n.classes = append(n.classes, c)
	for k, l := range c.links() {
		c.slots[k] = int32(len(l.classes))
		l.classes = append(l.classes, c)
	}
}

// park takes a class whose last flow finished out of Net.classes and its
// links' class lists, each by a swap with the last entry. It stays in
// byKey for the next flow of its key.
func (n *Net) park(c *flowClass) {
	last := int32(len(n.classes) - 1)
	if c.idx != last {
		moved := n.classes[last]
		n.classes[c.idx] = moved
		moved.idx = c.idx
	}
	n.classes[last] = nil
	n.classes = n.classes[:last]
	for k, l := range c.links() {
		last := int32(len(l.classes) - 1)
		if s := c.slots[k]; s != last {
			moved := l.classes[last]
			l.classes[s] = moved
			for j, m := range moved.links() {
				if m == l {
					moved.slots[j] = s
					break
				}
			}
		}
		l.classes[last] = nil
		l.classes = l.classes[:last]
	}
}

// unlink takes a drained flow off its links: each link's active count
// drops and the link is queued for the next settling pass.
func (n *Net) unlink(f *flowOp) {
	for _, l := range f.class.links() {
		l.active--
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

// PoolStats reports the free-list accounting for the net's pooled flows.
func (n *Net) PoolStats() sim.PoolStats { return n.pool.Stats() }

// capacityArg reports the link capacity rounded to int64 for occupancy
// events (0 for infinitely fast links).
func (l *Link) capacityArg() int64 {
	if l.Capacity <= 0 || math.IsInf(l.Capacity, 1) {
		return 0
	}
	return int64(l.Capacity)
}

// finishFlow completes f: fire the event (waking a blocked Transfer),
// run the completion action, and recycle the record. By the time the
// record returns to the free list every waiter has been dequeued by the
// Fire, so reuse cannot disturb them.
func (n *Net) finishFlow(f *flowOp) {
	f.done.Fire()
	if a := f.act; a != nil {
		f.act = nil
		a.Run()
	}
	f.class = nil
	f.done.Reset()
	n.pool.Put(f)
}

// drainEps is the remainder, in bytes, at which a flow counts as drained.
const drainEps = 1e-6

// account charges elapsed progress to all flows at their classes' rates
// and notes whether any ran dry. Each flow is charged rem -= rate*dt on
// its own, which keeps every class's heap in order; only the heap
// minimum can be the first to run dry.
func (n *Net) account() {
	now := n.eng.Now()
	if now > n.last {
		dt := (now - n.last).Seconds()
		for _, c := range n.classes {
			rate, rem := c.rate, c.rem
			for i := range rem {
				rem[i] -= rate * dt
			}
			if rem[0] <= drainEps {
				n.drained = true
			}
		}
	}
	n.last = now
}

// drain pops the flows that ran dry off their classes' heaps, parks the
// classes left empty, and returns the flows in launch order, the order
// completions run in, after taking each off its links in that order. The
// result reuses buf's backing array.
func (n *Net) drain(buf []*flowOp) []*flowOp {
	done := buf[:0]
	for i := 0; i < len(n.classes); {
		c := n.classes[i]
		for len(c.rem) > 0 && c.rem[0] <= drainEps {
			done = append(done, c.pop())
		}
		if len(c.flows) == 0 {
			n.park(c) // moves the last live class into slot i
			continue
		}
		i++
	}
	slices.SortFunc(done, func(a, b *flowOp) int { return cmp.Compare(a.seq, b.seq) })
	for _, f := range done {
		n.unlink(f)
	}
	n.flows -= len(done)
	return done
}

// recomputeRates brings every live class's rate up to date with the
// current link state. It refreshes each dirty link's cached share once,
// then recomputes — once per pass, by the epoch stamp — only the classes
// crossing a dirty link; every other class's inputs are unchanged, so
// its rate already equals what a full recompute would give. A full pass,
// the reference the differential settle tests force, re-derives every
// live class's links and recomputes every rate.
func (n *Net) recomputeRates() {
	if n.full {
		n.full = false
		for _, c := range n.classes {
			for _, l := range c.links() {
				l.shr = l.share()
			}
			c.rate = c.settleRate()
		}
	} else {
		for _, l := range n.dirty {
			if len(l.classes) > 0 { // an idle link is refreshed when a flow joins
				l.shr = l.share()
			}
		}
		for _, l := range n.dirty {
			for _, c := range l.classes {
				if c.gen != n.epoch {
					c.gen = n.epoch
					c.rate = c.settleRate()
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

// reschedule completes drained flows and arranges the settling pass for
// the end of the instant, replacing any booked completion. Completions
// run here, where the flow start or settling callback found them, so
// every wake they cause keeps its place.
//
// Each call takes an engine sequence number for the next completion
// booking when some class is live — exactly when a pass of its own would
// have booked one — and the end-of-instant pass books with the
// last number taken. The one booking an instant leaves therefore pops
// where the last of a per-call pass's bookings would, and every other
// event keeps its (at, seq).
func (n *Net) reschedule() {
	// Detach the completion scratch while it is in use: a completion
	// callback that starts a new flow re-enters reschedule, which must
	// not walk the same backing array. The nested call sees nil and
	// builds its own (cold path); the hot path reuses one buffer.
	finished := n.fin
	n.fin = nil
	// Completion callbacks run at this instant, so they cannot drain
	// another flow: one drain per call finds every completion.
	if n.drained {
		n.drained = false
		finished = n.drain(finished)
		for _, f := range finished {
			n.finishFlow(f)
		}
		for i := range finished {
			finished[i] = nil
		}
	}
	n.fin = finished[:0]
	n.resv = 0
	if len(n.classes) > 0 {
		n.resv = n.eng.Reserve()
	}
	if !n.pending {
		n.pending = true
		n.tick.ArmEnd()
	}
}

// settle is the settling pass, run once at the end of an instant that
// started or drained flows: it recomputes rates and books the next
// completion. Completions within the booking pad of the earliest settle
// together, bounding the number of settling passes a staggered drain can
// trigger while keeping the timing error to a 2^-10 fraction of each
// flow's own duration.
func (n *Net) settle() {
	n.pending = false
	n.epoch++
	n.recomputeRates()
	if n.settled != nil {
		n.settled()
	}
	if len(n.classes) == 0 {
		return
	}
	// Division by a positive rate is monotone, so each class's heap
	// minimum gives its earliest completion.
	next := math.Inf(1)
	for _, c := range n.classes {
		if t := c.rem[0] / c.rate; t < next {
			next = t
		}
	}
	dt := sim.FromSeconds(next)
	// Relative quantization: push the wake slightly past the earliest
	// completion so that near-simultaneous completions batch into one
	// settling pass instead of each paying for its own.
	dt += dt >> 10
	if dt < 1 {
		dt = 1
	}
	// Some class is live, so the last reschedule reserved a number.
	n.tick.Arm(n.eng.Now()+dt, n.resv)
}

// netTick is the Net's settling callback: the end-of-instant pass while
// one is pending, otherwise the next completion, which charges progress
// and completes the flows that ran dry.
type netTick struct{ n *Net }

func (t netTick) Run() {
	n := t.n
	if n.pending {
		n.settle()
		return
	}
	n.account()
	n.reschedule()
}
