package fabric

import (
	"crypto/sha256"
	"encoding/hex"
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
	n.StartAction(100, 0, nil, a, b, a)
}

// settleFlow is one scripted flow: its size, cap, link indices, and an
// optional flow its completion starts.
type settleFlow struct {
	id    int
	size  int64
	cap   float64
	links []int
	chain *settleFlow
}

// settleOp is one scripted flow start at a virtual time.
type settleOp struct {
	at   sim.Duration
	flow *settleFlow
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

func genSettleScript(seed int64) []settleOp {
	rng := rand.New(rand.NewSource(seed))
	nlinks := len(settleLinks())
	id := 0
	var flow func(depth int) *settleFlow
	flow = func(depth int) *settleFlow {
		id++
		f := &settleFlow{id: id, size: 1 + rng.Int63n(200000)}
		rng.Intn(2) // drawn and discarded: keeps the seeded scripts, and settleGolden, unchanged
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
		at := sim.Duration(rng.Int63n(int64(2 * sim.Second)))
		// The draws of the slots that once changed a link are kept and
		// discarded, so the seeded scripts keep their flows.
		switch r := rng.Intn(10); {
		case r < 7:
			ops = append(ops, settleOp{at: at, flow: flow(0)})
		case r < 9:
			rng.Intn(nlinks)
		default:
			rng.Intn(4)
			rng.Float64()
		}
	}
	return ops
}

type settleCompletion struct {
	id int
	at sim.Time
}

// runSettleScript plays ops on a fresh Net and reports every completion
// in the order it ran. After every settling pass it checks the classes
// (checkClasses). With forceFull every pass takes the full path, so no
// pass relies on the dirty set.
func runSettleScript(t *testing.T, ops []settleOp, forceFull bool) []settleCompletion {
	e := sim.New(1)
	n := NewNet(e)
	links := settleLinks()
	var keys []flowKey
	for _, op := range ops {
		for sf := op.flow; sf != nil; sf = sf.chain {
			ls := make([]*Link, len(sf.links))
			for i, li := range sf.links {
				ls[i] = links[li]
			}
			keys = append(keys, classKey(sf.cap, ls))
		}
	}
	failed := false
	n.full = forceFull
	n.settled = func() {
		if err := checkClasses(n, links, keys); err != nil && !failed {
			failed = true
			t.Errorf("at %d (forceFull=%v): %v", e.Now(), forceFull, err)
		}
		if forceFull {
			n.full = true
		}
	}
	return playSettleScript(t, n, links, ops)
}

// checkClasses checks n's flow classes after a settling pass:
//   - each live class's rate equals, bit for bit, a from-scratch
//     min(cap, shares) over its links;
//   - each live class's remaining bytes are in heap order, and its index
//     and link slots point back at it;
//   - each link's active count is the flows of the classes it lists;
//   - the classes of keys that are parked appear in neither Net.classes
//     nor any link's list.
func checkClasses(n *Net, links []*Link, keys []flowKey) error {
	flows := 0
	for i, c := range n.classes {
		if int(c.idx) != i {
			return fmt.Errorf("class %d records index %d", i, c.idx)
		}
		if len(c.flows) == 0 || len(c.rem) != len(c.flows) {
			return fmt.Errorf("live class %d holds %d flows, %d remainders", i, len(c.flows), len(c.rem))
		}
		flows += len(c.flows)
		want := math.Inf(1)
		if c.key.cap > 0 {
			want = c.key.cap
		}
		for k, l := range c.links() {
			if s := l.share(); s < want {
				want = s
			}
			if l.classes[c.slots[k]] != c {
				return fmt.Errorf("link %s slot %d does not hold its class", l.Name, c.slots[k])
			}
		}
		if math.IsInf(want, 1) {
			want = math.MaxFloat64
		}
		if math.Float64bits(c.rate) != math.Float64bits(want) {
			return fmt.Errorf("class %d rate %v, from-scratch %v", i, c.rate, want)
		}
		for j := 1; j < len(c.rem); j++ {
			if p := (j - 1) / 2; c.rem[p] > c.rem[j] {
				return fmt.Errorf("class %d heap: rem[%d]=%v above rem[%d]=%v", i, p, c.rem[p], j, c.rem[j])
			}
		}
		for j, f := range c.flows {
			if f.class != c {
				return fmt.Errorf("class %d flow %d records another class", i, j)
			}
		}
	}
	if flows != n.Active() {
		return fmt.Errorf("%d flows in live classes, Active %d", flows, n.Active())
	}
	for _, l := range links {
		sum := 0
		for _, c := range l.classes {
			sum += len(c.flows)
		}
		if l.active != sum {
			return fmt.Errorf("link %s active %d with %d flows in its classes", l.Name, l.active, sum)
		}
	}
	for _, k := range keys {
		c := n.byKey[k]
		if c == nil || len(c.flows) > 0 {
			continue
		}
		if int(c.idx) < len(n.classes) && n.classes[c.idx] == c {
			return fmt.Errorf("parked class at index %d is in Net.classes", c.idx)
		}
		for _, l := range links {
			for _, m := range l.classes {
				if m == c {
					return fmt.Errorf("parked class is on link %s", l.Name)
				}
			}
		}
	}
	return nil
}

// playSettleScript plays ops on n over links and reports every
// completion in the order it ran.
func playSettleScript(t *testing.T, n *Net, links []*Link, ops []settleOp) []settleCompletion {
	e := n.Engine()
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
		n.StartAction(sf.size, sf.cap, actionFunc(done), ls...)
	}
	for _, op := range ops {
		e.After(op.at, func() { start(op.flow) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Active() != 0 {
		t.Errorf("%d flows still in flight after the script", n.Active())
	}
	return got
}

// settleGolden is the SHA-256 of the completion streams of
// genSettleScript seeds 1-200, one fmt.Fprintln line per seed. It pins
// which flow completes when, and in what order, so a change to the
// settling machinery cannot shift them even if it stays self-consistent.
const settleGolden = "ef04d7beb07e271e1ac3b997bae0bf5822cb351e9d4d8cb987be120f074a5b03"

// TestSettleCompletionsGolden plays genSettleScript seeds 1-200 on plain
// Nets, with no settling hook installed, and checks the completion
// streams against settleGolden.
func TestSettleCompletionsGolden(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= 200; seed++ {
		n := NewNet(sim.New(1))
		fmt.Fprintln(h, playSettleScript(t, n, settleLinks(), genSettleScript(seed)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != settleGolden {
		t.Errorf("completion streams hash to %s, want %s", got, settleGolden)
	}
}

// genClassScript is genSettleScript's class-heavy mode: every flow
// crosses one of 2-3 link sets with one of two caps, so a few classes
// hold many flows at once, and a third of the starts are bursts of
// equal-size flows on one tick, whose heap ties drain together inside
// one settling pass's batching pad.
func genClassScript(seed int64) []settleOp {
	rng := rand.New(rand.NewSource(seed))
	nlinks := len(settleLinks())
	sets := make([][]int, 2+rng.Intn(2))
	for i := range sets {
		sets[i] = rng.Perm(nlinks)[:1+rng.Intn(maxFlowLinks)]
	}
	caps := []float64{0, 1e5 + rng.Float64()*1e6}
	id := 0
	flow := func(size int64) *settleFlow {
		id++
		f := &settleFlow{id: id, size: size, cap: caps[rng.Intn(2)],
			links: sets[rng.Intn(len(sets))]}
		rng.Intn(2) // drawn and discarded: keeps the seeded scripts, and settleGolden, unchanged
		return f
	}
	var ops []settleOp
	// idle counts the slots that once changed a link: their draws are
	// kept and discarded, so the seeded scripts keep their flows.
	for idle := 0; len(ops)+idle < 300; {
		at := sim.Duration(rng.Int63n(int64(2 * sim.Second)))
		switch r := rng.Intn(20); {
		case r < 12:
			f := flow(1 + rng.Int63n(200000))
			if rng.Intn(4) == 0 {
				f.chain = flow(1 + rng.Int63n(200000))
			}
			ops = append(ops, settleOp{at: at, flow: f})
		case r < 18:
			size := 1 + rng.Int63n(200000)
			for k := 2 + rng.Intn(8); k > 0; k-- {
				ops = append(ops, settleOp{at: at, flow: flow(size)})
			}
		case r < 19:
			rng.Intn(nlinks)
			idle++
		default:
			rng.Intn(4)
			rng.Float64()
			idle++
		}
	}
	return ops
}

// checkSettleScript plays ops incrementally and forced through full
// passes, checking the classes after every pass, and requires both runs
// to complete every scripted flow in the same order at the same ticks.
func checkSettleScript(t *testing.T, seed int64, ops []settleOp) {
	t.Helper()
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

// TestIncrementalSettleMatchesFullRecompute drives seeded random scripts
// of flows over 0-3 links (capped and uncapped, congested and infinitely
// fast links) and completion chains, and requires the incremental settle
// to give the same completions, in the same order at the same ticks, as
// a run forced through full passes.
func TestIncrementalSettleMatchesFullRecompute(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		checkSettleScript(t, seed, genSettleScript(seed))
	}
}

// TestClassHeavySettleMatchesFullRecompute is the differential test on
// genClassScript's few, crowded classes, where heap ties and batched
// completions are the common case.
func TestClassHeavySettleMatchesFullRecompute(t *testing.T) {
	batched, crowd := 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		ops := genClassScript(seed)
		checkSettleScript(t, seed, ops)
		n := NewNet(sim.New(1))
		n.settled = func() {
			for _, c := range n.classes {
				crowd = max(crowd, len(c.flows))
			}
		}
		got := playSettleScript(t, n, settleLinks(), ops)
		for i := 1; i < len(got); i++ {
			if got[i].at == got[i-1].at {
				batched++
			}
		}
	}
	t.Logf("%d completions shared a tick with the previous one; largest class %d flows", batched, crowd)
	if batched == 0 || crowd < 8 {
		t.Errorf("scripts too sparse: %d batched completions, largest class %d flows", batched, crowd)
	}
}

// burstGolden is the SHA-256 of TestBurstSettlesOncePerInstant's
// completion stream, recorded when every flow start ran its own settling
// pass.
const burstGolden = "1ea51fad36d583fbe72269ceb7fd9ae1b52e144a8ee89abe9d956ebc5b3f405d"

// TestBurstSettlesOncePerInstant starts 64 flows of staggered sizes at
// one instant, over two links and two caps, and requires exactly one
// settling pass at that instant, with the completions of a pass per
// start.
func TestBurstSettlesOncePerInstant(t *testing.T) {
	e := sim.New(1)
	n := NewNet(e)
	a, b := NewLink("a", 1e6), NewLink("b", 4e5)
	b.Beta = 0.1
	const launch = 10 * sim.Microsecond
	passes := 0
	n.settled = func() {
		if e.Now() == launch {
			passes++
		}
	}
	var got []settleCompletion
	e.After(launch, func() {
		for i := 0; i < 64; i++ {
			links := []*Link{a}
			if i%3 == 0 {
				links = append(links, b)
			}
			cap := 0.0
			if i%4 == 0 {
				cap = 2e4
			}
			n.StartAction(int64(1000+97*i), cap, actionFunc(func() {
				got = append(got, settleCompletion{i, e.Now()})
			}), links...)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if passes != 1 {
		t.Errorf("64 flow starts at one instant ran %d settling passes there, want 1", passes)
	}
	if len(got) != 64 {
		t.Fatalf("%d of 64 flows completed", len(got))
	}
	sum := sha256.Sum256([]byte(fmt.Sprint(got)))
	if h := hex.EncodeToString(sum[:]); h != burstGolden {
		t.Errorf("completions hash to %s, want %s: %v", h, burstGolden, got)
	}
}
