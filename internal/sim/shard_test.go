package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/trace"
)

// buildPingPong wires a 2-lane group bouncing a counter back and forth
// n times over a link with latency la.
func buildPingPong(t *testing.T, workers, n int, la Duration, sink trace.Tracer) *ShardGroup {
	t.Helper()
	g := NewShardGroup(7, 2, sink)
	g.SetWorkers(workers)
	g.SetLookahead(0, 1, la)
	g.SetLookahead(1, 0, la)
	count := 0
	var volley func(from int)
	volley = func(from int) {
		count++
		if count >= n {
			return
		}
		to := 1 - from
		src := g.Lane(from)
		g.Send(src, to, la, 8, func() { volley(to) })
	}
	g.Lane(0).Go("serve", func(p *Proc) {
		p.Advance(10)
		volley(0)
	})
	return g
}

func TestShardPingPong(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		g := buildPingPong(t, workers, 100, 500*Nanosecond, nil)
		if err := g.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if g.Messages() != 99 {
			t.Fatalf("workers=%d: %d messages, want 99", workers, g.Messages())
		}
		// 100 volleys: the first at t=10, each later one 500ns after its
		// predecessor.
		want := Time(10 + 99*500)
		if got := g.Lane(1).Now(); got != want {
			t.Fatalf("workers=%d: lane1 clock %v, want %v", workers, got, want)
		}
	}
}

// clockedDigest is a Digest that opts into per-advance KClock events, so
// the digested stream covers every clock move of every lane.
type clockedDigest struct{ *trace.Digest }

func (clockedDigest) ObserveClock() bool { return true }

// TestShardWorkerCountInvariance is the heart of the determinism
// contract: the merged trace stream (hence the TraceDigest) must be
// byte-identical at any worker count.
func TestShardWorkerCountInvariance(t *testing.T) {
	digestAt := func(workers int) (uint64, int64) {
		d := trace.NewDigest()
		g := buildManyLanes(t, workers, clockedDigest{d})
		if err := g.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return d.Sum64(), d.Events()
	}
	ref, refN := digestAt(1)
	if refN == 0 {
		t.Fatal("reference run traced no events")
	}
	for _, workers := range []int{2, 4, 8} {
		got, n := digestAt(workers)
		if got != ref || n != refN {
			t.Fatalf("workers=%d: digest %016x (%d events), want %016x (%d events)",
				workers, got, n, ref, refN)
		}
	}
}

// buildManyLanes builds an 8-lane group where every lane runs a proc
// that computes, draws from the lane RNG, and scatters messages to
// random peers — enough cross-lane chatter to expose any
// worker-count-dependent ordering.
func buildManyLanes(t *testing.T, workers int, sink trace.Tracer) *ShardGroup {
	t.Helper()
	const lanes = 8
	g := NewShardGroup(42, lanes, sink)
	g.SetWorkers(workers)
	for i := 0; i < lanes; i++ {
		for j := 0; j < lanes; j++ {
			if i != j {
				g.SetLookahead(i, j, Duration(300+50*((i+j)%3)))
			}
		}
	}
	for i := 0; i < lanes; i++ {
		lane := i
		e := g.Lane(lane)
		e.Go(fmt.Sprintf("chatter%d", lane), func(p *Proc) {
			for step := 0; step < 40; step++ {
				p.Advance(Duration(50 + e.Rand().Intn(200)))
				dst := e.Rand().Intn(lanes - 1)
				if dst >= lane {
					dst++
				}
				hops := int64(step)
				g.Send(e, dst, 600, 64, func() {
					_ = hops
					g.Lane(dst).TraceInstant("test", "hop", "", hops, int64(lane))
				})
			}
		})
	}
	return g
}

// TestShardLookaheadFloor covers the zero-latency-link edge: declared
// lookaheads clamp to LookaheadFloor, a send below the clamped bound
// panics, and a send at the floor still completes.
func TestShardLookaheadFloor(t *testing.T) {
	g := NewShardGroup(1, 2, nil)
	g.SetLookahead(0, 1, 0) // zero-latency link clamps to the floor
	if la := g.Lookahead(0, 1); la != LookaheadFloor {
		t.Fatalf("Lookahead(0,1) = %v, want floor %v", la, LookaheadFloor)
	}
	delivered := false
	g.Lane(0).Go("root", func(p *Proc) {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Send with delay 0 over a floor-clamped link did not panic")
				}
			}()
			g.Send(g.Lane(0), 1, 0, 8, func() {})
		}()
		g.Send(g.Lane(0), 1, LookaheadFloor, 8, func() { delivered = true })
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("floor-delay message not delivered")
	}
	if g.Lane(1).Now() != LookaheadFloor {
		t.Fatalf("lane1 clock %v, want %v", g.Lane(1).Now(), LookaheadFloor)
	}
}

// TestShardSimultaneousArrivals covers the tie-break edge: messages
// from different source lanes arriving at one destination at the same
// timestamp execute in (source lane, source sequence) order, at any
// worker count.
func TestShardSimultaneousArrivals(t *testing.T) {
	run := func(workers int) string {
		var order []string
		g := NewShardGroup(3, 4, nil)
		g.SetWorkers(workers)
		for src := 1; src < 4; src++ {
			g.SetLookahead(src, 0, 100)
			e, s := g.Lane(src), src
			// Two messages per source, sent in reverse sequence order of
			// payload, all arriving at exactly t=100.
			e.Go(fmt.Sprintf("src%d", s), func(p *Proc) {
				g.Send(e, 0, 100, 8, func() { order = append(order, fmt.Sprintf("%d.a", s)) })
				g.Send(e, 0, 100, 8, func() { order = append(order, fmt.Sprintf("%d.b", s)) })
			})
		}
		if err := g.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return strings.Join(order, " ")
	}
	want := "1.a 1.b 2.a 2.b 3.a 3.b"
	for _, workers := range []int{1, 4} {
		if got := run(workers); got != want {
			t.Fatalf("workers=%d: arrival order %q, want %q", workers, got, want)
		}
	}
}

// TestShardIdleLaneMinClock covers the idle-shard edge: a lane whose
// clock is the global minimum but whose heap is empty (it is waiting
// for a message) must not stall or distort the LBTS computation, which
// uses next-event times rather than lane clocks.
func TestShardIdleLaneMinClock(t *testing.T) {
	g := NewShardGroup(5, 3, nil)
	g.SetLookahead(1, 0, 200)
	g.SetLookahead(1, 2, 200)
	g.SetLookahead(2, 1, 200)
	woken := false
	var q WaitQueue
	g.Lane(0).Go("sleeper", func(p *Proc) {
		// Parks immediately with nothing scheduled: lane 0's clock stays 0
		// — the minimum — while lanes 1 and 2 run far ahead.
		q.Wait(p, "mail")
		woken = true
		if p.Now() < 10000 {
			t.Errorf("sleeper woke at %v, want >= 10us", p.Now())
		}
	})
	g.Lane(1).Go("worker", func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Advance(100)
			g.Send(p.Engine(), 2, 200, 8, func() {})
		}
		p.Advance(10000)
		g.Send(p.Engine(), 0, 200, 8, func() { q.WakeOne() })
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Fatal("sleeper never woke")
	}
	// The idle lane must not have forced single-event windows: the run is
	// ~60 windows of lane-1 work plus delivery rounds, far below the
	// paranoid bound.
	if g.Rounds() > 200 {
		t.Fatalf("%d rounds for ~52 events: idle lane is throttling LBTS", g.Rounds())
	}
}

// TestShardCrashInFlight covers the crash edge: a message in flight to
// a lane that crashes before the arrival time is dropped, and the drop
// is identical at any worker count.
func TestShardCrashInFlight(t *testing.T) {
	run := func(workers int) (delivered bool, digest uint64) {
		d := trace.NewDigest()
		g := NewShardGroup(9, 2, d)
		g.SetWorkers(workers)
		g.SetLookahead(0, 1, 100)
		g.Lane(0).Go("sender", func(p *Proc) {
			p.Advance(50)
			// In flight during the crash: sent at 50, arrives at 150,
			// destination dies at 120.
			g.Send(p.Engine(), 1, 100, 8, func() { delivered = true })
		})
		g.Lane(1).Go("victim", func(p *Proc) {
			p.Advance(120)
			g.CrashLane(p.Engine())
		})
		if err := g.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return delivered, d.Sum64()
	}
	del1, dig1 := run(1)
	if del1 {
		t.Fatal("message delivered to a lane that crashed before arrival")
	}
	del4, dig4 := run(4)
	if del4 || dig4 != dig1 {
		t.Fatalf("workers=4: delivered=%v digest=%016x, want false/%016x", del4, dig4, dig1)
	}
	// A message arriving before the crash instant still lands.
	g := NewShardGroup(9, 2, nil)
	g.SetLookahead(0, 1, 100)
	early := false
	g.Lane(0).Go("sender", func(p *Proc) {
		g.Send(p.Engine(), 1, 100, 8, func() { early = true })
	})
	g.Lane(1).Go("victim", func(p *Proc) {
		p.Advance(120)
		g.CrashLane(p.Engine())
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if !early {
		t.Fatal("pre-crash message was dropped")
	}
}

// TestShardSendContract covers the conservative-send panics: an
// undeclared link, a self-send, and running a lane engine directly.
func TestShardSendContract(t *testing.T) {
	g := NewShardGroup(1, 3, nil)
	g.SetLookahead(0, 1, 100)
	g.Lane(0).Go("root", func(p *Proc) {
		mustPanic(t, "undeclared link", func() { g.Send(p.Engine(), 2, 100, 8, func() {}) })
		mustPanic(t, "self send", func() { g.Send(p.Engine(), 0, 100, 8, func() {}) })
		g.Send(p.Engine(), 1, 100, 8, func() {})
	})
	if err := g.Lane(0).Run(); err == nil {
		t.Fatal("Run on a lane engine did not error")
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err == nil {
		t.Fatal("second ShardGroup.Run did not error")
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestShardDeadlock: parked procs with empty heaps across all lanes
// produce a group-level deadlock error naming the lane.
func TestShardDeadlock(t *testing.T) {
	g := NewShardGroup(1, 2, nil)
	g.SetLookahead(0, 1, 100)
	var q WaitQueue
	g.Lane(1).Go("stuck", func(p *Proc) { q.Wait(p, "never") })
	err := g.Run()
	if err == nil || !strings.Contains(err.Error(), "lane1/stuck") {
		t.Fatalf("deadlock error = %v, want mention of lane1/stuck", err)
	}
}

// TestShardMessageFilter exercises drop, duplicate and delay verdicts
// and checks that reliable sends bypass the filter.
func TestShardMessageFilter(t *testing.T) {
	g := NewShardGroup(1, 2, nil)
	g.SetLookahead(0, 1, 100)
	verdicts := []MessageVerdict{MsgDrop, MsgDuplicate, MsgDelay, MsgDeliver}
	i := 0
	g.SetMessageFilter(func(src, dst int, at Time, size int64, rng *rand.Rand) (MessageVerdict, Duration) {
		v := verdicts[i%len(verdicts)]
		i++
		return v, 40
	})
	var got []string
	note := func(tag string) func() {
		e := g.Lane(1)
		return func() { got = append(got, fmt.Sprintf("%s@%d", tag, e.Now())) }
	}
	g.Lane(0).Go("root", func(p *Proc) {
		e := p.Engine()
		g.Send(e, 1, 100, 8, note("dropped"))
		g.Send(e, 1, 100, 8, note("dup"))
		g.Send(e, 1, 100, 8, note("late"))
		g.Send(e, 1, 100, 8, note("plain"))
		g.SendReliable(e, 1, 100, 8, note("ctl"))
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	want := "dup@100 dup@100 plain@100 ctl@100 late@140"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("deliveries %q, want %q", s, want)
	}
}

// TestShardLaneSeedsDiffer: lanes must draw from independent streams.
func TestShardLaneSeedsDiffer(t *testing.T) {
	g := NewShardGroup(11, 3, nil)
	a := g.Lane(0).Rand().Int63()
	b := g.Lane(1).Rand().Int63()
	c := g.Lane(2).Rand().Int63()
	if a == b || b == c || a == c {
		t.Fatalf("lane RNG streams collide: %d %d %d", a, b, c)
	}
}

// TestShardProcIDStride: proc ids embed the lane so merged streams have
// stable, collision-free track ids.
func TestShardProcIDStride(t *testing.T) {
	g := NewShardGroup(1, 2, nil)
	p0 := g.Lane(0).Go("a", func(p *Proc) {})
	p1 := g.Lane(1).Go("b", func(p *Proc) {})
	if p0.ID() != 0 || p1.ID() != LaneStride {
		t.Fatalf("proc ids %d, %d; want 0, %d", p0.ID(), p1.ID(), LaneStride)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
}
