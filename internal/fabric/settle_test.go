package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// settleDelay mirrors reschedule's booking of the next settling pass: the
// earliest drain time padded by a 2^-10 fraction of itself.
func settleDelay(seconds float64) sim.Duration {
	dt := sim.FromSeconds(seconds)
	dt += dt >> 10
	if dt < 1 {
		dt = 1
	}
	return dt
}

func TestNudgeWakesFlowStalledOnDownLink(t *testing.T) {
	e := sim.New(1)
	n := NewNet(e)
	l := NewLink("l", 1000)
	f := n.Start(1000, 0, l)
	var done sim.Time
	f.OnComplete(func() { done = e.Now() })
	const down, restore = 250 * sim.Millisecond, 1250 * sim.Millisecond
	e.After(down, func() { l.Down = true; n.Nudge() })
	e.After(restore-1, func() {
		if f.Done() {
			t.Error("flow drained while its only link was down")
		}
	})
	e.After(restore, func() { l.Down = false; n.Nudge() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 250 B moved before the flap; the other 750 B start at restore.
	if want := restore + settleDelay(750.0/1000); done != want {
		t.Errorf("stalled flow done at %d, want %d", done, want)
	}
}

// TestNudgeResettlesFlowAfterCapacityDegrade degrades link x under flow
// a (crossing x and y) while flow b shares only y with it. The Nudge must
// re-derive x's share although no flow starts or finishes on x, and a's
// later re-settle on b's finish must still see the degraded share.
func TestNudgeResettlesFlowAfterCapacityDegrade(t *testing.T) {
	e := sim.New(1)
	n := NewNet(e)
	x := NewLink("x", 1000)
	y := NewLink("y", 2000)
	a := n.Start(3000, 0, x, y) // 1000 B/s: x's whole capacity, half of y
	b := n.Start(1000, 0, y)    // 1000 B/s: half of y
	var doneA, doneB sim.Time
	a.OnComplete(func() { doneA = e.Now() })
	b.OnComplete(func() { doneB = e.Now() })
	const degrade = 500 * sim.Millisecond
	e.After(degrade, func() { x.Capacity = 500; n.Nudge() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// At the degrade a has 2500 B left and drops to 500 B/s; b keeps
	// 1000 B/s for its last 500 B but is rebooked from the Nudge.
	wantB := degrade + settleDelay(500.0/1000)
	if doneB != wantB {
		t.Errorf("b done at %d, want %d", doneB, wantB)
	}
	// b's finish leaves a alone on y, still held to x's 500 B/s.
	remA := 2500 - 500*(wantB-degrade).Seconds()
	if wantA := wantB + settleDelay(remA/500); doneA != wantA {
		t.Errorf("a done at %d, want %d", doneA, wantA)
	}
}

func TestFlowDuplicateLinkPanics(t *testing.T) {
	e := sim.New(1)
	n := NewNet(e)
	a := NewLink("a", 1000)
	b := NewLink("b", 1000)
	defer func() {
		if recover() == nil {
			t.Error("a flow listing one link twice must panic")
		}
		if a.Active() != 0 || b.Active() != 0 || n.Active() != 0 {
			t.Errorf("rejected flow left state behind: a=%d b=%d net=%d",
				a.Active(), b.Active(), n.Active())
		}
	}()
	n.Start(100, 0, a, b, a)
}

// settleFlow is one scripted flow: its size, cap, link indices, whether
// it goes through the pooled StartAction path, and an optional flow its
// completion starts.
type settleFlow struct {
	id     int
	size   int64
	cap    float64
	links  []int
	pooled bool
	chain  *settleFlow
}

// settleOp is one scripted action at a virtual time: start a flow, or
// change a link (toggle Down, or set a new Capacity) and Nudge.
type settleOp struct {
	at       sim.Duration
	flow     *settleFlow
	link     int
	toggle   bool
	capacity float64
}

// settleLinks is the script's link set: ideal and congested finite
// links plus both spellings of an infinitely fast link.
func settleLinks() []*Link {
	ls := []*Link{
		NewLink("ideal", 1e6),
		NewLink("beta", 2e6),
		NewLink("thrash", 5e5),
		NewLink("free", 0),
		NewLink("inf", math.Inf(1)),
		NewLink("slow", 2e5),
	}
	ls[1].Beta = 0.3
	ls[2].Beta = 0.05
	ls[5].Beta = 0.1
	return ls
}

// finiteLinks are the settleLinks indices a script may re-capacitate.
var finiteLinks = []int{0, 1, 2, 5}

func genSettleScript(seed int64) []settleOp {
	rng := rand.New(rand.NewSource(seed))
	nlinks := len(settleLinks())
	id := 0
	var flow func(depth int) *settleFlow
	flow = func(depth int) *settleFlow {
		id++
		f := &settleFlow{id: id, size: 1 + rng.Int63n(200000), pooled: rng.Intn(2) == 0}
		if rng.Intn(3) == 0 {
			f.cap = 1e5 + rng.Float64()*1e6
		}
		if rng.Intn(12) != 0 { // a few flows cross no link at all
			for _, i := range rng.Perm(nlinks)[:1+rng.Intn(maxFlowLinks)] {
				f.links = append(f.links, i)
			}
		}
		if depth < 2 && rng.Intn(4) == 0 {
			f.chain = flow(depth + 1)
		}
		return f
	}
	var ops []settleOp
	for i := 0; i < 150; i++ {
		op := settleOp{at: sim.Duration(rng.Int63n(int64(2 * sim.Second)))}
		switch r := rng.Intn(10); {
		case r < 7:
			op.flow = flow(0)
		case r < 9:
			op.link, op.toggle = rng.Intn(nlinks), true
		default:
			op.link = finiteLinks[rng.Intn(len(finiteLinks))]
			op.capacity = 1e5 + rng.Float64()*3e6
		}
		ops = append(ops, op)
	}
	return ops
}

type settleCompletion struct {
	id int
	at sim.Time
}

type actionFunc func()

func (f actionFunc) Run() { f() }

// runSettleScript plays ops on a fresh Net and reports every completion
// in the order it ran. After every settling pass it checks each in-flight
// flow's rate bit for bit against a from-scratch min(cap, shares), and
// the links' flow lists against their active counts. With forceFull
// every pass takes the full path, so no pass relies on the dirty set.
func runSettleScript(t *testing.T, ops []settleOp, forceFull bool) []settleCompletion {
	e := sim.New(1)
	n := NewNet(e)
	links := settleLinks()
	failed := false
	fail := func(format string, args ...any) {
		if !failed {
			failed = true
			t.Errorf("at %d (forceFull=%v): %s", e.Now(), forceFull, fmt.Sprintf(format, args...))
		}
	}
	n.full = forceFull
	n.settled = func() {
		for i, f := range n.flows {
			if int(f.idx) != i {
				fail("flow %d records index %d", i, f.idx)
			}
			want := math.Inf(1)
			if f.cap > 0 {
				want = f.cap
			}
			for k, l := range f.links() {
				if s := l.share(); s < want {
					want = s
				}
				if l.flows[f.slots[k]] != f {
					fail("link %s slot %d does not hold its flow", l.Name, f.slots[k])
				}
			}
			if math.IsInf(want, 1) {
				want = math.MaxFloat64
			}
			if math.Float64bits(n.rate[i]) != math.Float64bits(want) {
				fail("flow %d rate %v, from-scratch %v", i, n.rate[i], want)
			}
		}
		for _, l := range links {
			if l.active != len(l.flows) {
				fail("link %s active %d with %d flows listed", l.Name, l.active, len(l.flows))
			}
		}
		if forceFull {
			n.full = true
		}
	}
	var got []settleCompletion
	var start func(sf *settleFlow)
	start = func(sf *settleFlow) {
		ls := make([]*Link, len(sf.links))
		for i, li := range sf.links {
			ls[i] = links[li]
		}
		done := func() {
			got = append(got, settleCompletion{sf.id, e.Now()})
			if sf.chain != nil {
				start(sf.chain)
			}
		}
		if sf.pooled {
			n.StartAction(sf.size, sf.cap, actionFunc(done), ls...)
		} else {
			n.Start(sf.size, sf.cap, ls...).OnComplete(done)
		}
	}
	for _, op := range ops {
		e.After(op.at, func() {
			l := links[op.link]
			switch {
			case op.flow != nil:
				start(op.flow)
			case op.toggle:
				l.Down = !l.Down
				n.Nudge()
			default:
				l.Capacity = op.capacity
				n.Nudge()
			}
		})
	}
	// Bring every link back up so stalled flows drain.
	e.After(3*sim.Second, func() {
		for _, l := range links {
			l.Down = false
		}
		n.Nudge()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Active() != 0 {
		t.Errorf("%d flows still in flight after the script", n.Active())
	}
	return got
}

// TestIncrementalSettleMatchesFullRecompute drives seeded random scripts
// of flows over 0-3 links (capped and uncapped, congested and infinitely
// fast links), completion chains, link flaps and capacity changes, and
// requires the incremental settle to give the same completions, in the
// same order at the same ticks, as a run forced through full passes.
func TestIncrementalSettleMatchesFullRecompute(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		ops := genSettleScript(seed)
		flows := 0
		for _, op := range ops {
			for f := op.flow; f != nil; f = f.chain {
				flows++
			}
		}
		inc := runSettleScript(t, ops, false)
		full := runSettleScript(t, ops, true)
		if len(inc) != flows || len(full) != flows {
			t.Fatalf("seed %d: %d flows scripted, %d incremental and %d full completions",
				seed, flows, len(inc), len(full))
		}
		for i := range inc {
			if inc[i] != full[i] {
				t.Fatalf("seed %d: completion %d is flow %d at %d, full recompute has flow %d at %d",
					seed, i, inc[i].id, inc[i].at, full[i].id, full[i].at)
			}
		}
	}
}
