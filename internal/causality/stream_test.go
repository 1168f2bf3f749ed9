package causality

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/trace"
)

// syntheticRun appends one run of a seeded, interleaved event stream to
// evs. procs processes (thread i on node i/4) take turns at random: a
// running proc opens a wait — a barrier or collective generation, a
// contended lock, a receive, a fault timeout, a transfer completion, an
// idle or revival park, or modeled work — and a parked one ends it,
// followed by the edge or instant that blames it. Clock steps of zero
// make several waits end at the same instant, and waits of different
// procs overlap, so the transitive blame walk finds chains.
func syntheticRun(evs []trace.Event, rng *rand.Rand, seed int64, procs, steps int) []trace.Event {
	type pstate struct {
		parked bool
		kind   int
		span   bool
	}
	st := make([]pstate, procs)
	now := int64(0)
	emit := func(e trace.Event) {
		e.Time = now
		evs = append(evs, e)
	}
	self := func(p int) int64 { return trace.PackEndpoints(p, p, p/4, p/4) }
	pair := func(a, b int) int64 { return trace.PackEndpoints(a, b, a/4, b/4) }
	emit(trace.Event{Kind: trace.KRunBegin, Proc: trace.EngineProc, Arg: seed})
	for p := 0; p < procs; p++ {
		emit(trace.Event{Kind: trace.KProcSpawn, Proc: int32(p), Name: fmt.Sprintf("upc%d", p)})
	}
	gen := map[string]int64{"barrier": 0, "coll": 0}
	sites := []string{"barrier", "coll"}
	classes := []string{trace.ClassSelf, trace.ClassPSHM, trace.ClassLoopback, trace.ClassNetwork, trace.ClassFault, "other"}
	for s := 0; s < steps; s++ {
		if rng.Intn(3) != 0 {
			now += int64(rng.Intn(40))
		}
		p := rng.Intn(procs)
		id := int32(p)
		peer := rng.Intn(procs)
		ps := &st[p]
		if ps.parked {
			ps.parked = false
			emit(trace.Event{Kind: trace.KProcUnpark, Proc: id})
			switch ps.kind {
			case 1: // lock: the grant names the previous holder
				emit(trace.Event{Kind: trace.KInstant, Proc: id, Cat: trace.CatEdge,
					Name: trace.EdgeLockGrant, Arg2: pair(peer, p)})
			case 2: // receive: the match names the sender
				emit(trace.Event{Kind: trace.KInstant, Proc: id, Cat: trace.CatEdge,
					Name: trace.EdgeMsgMatch, Arg: 64, Arg2: pair(peer, p)})
			case 3: // fault timeout, reported by instant or retry edge
				if rng.Intn(2) == 0 {
					emit(trace.Event{Kind: trace.KInstant, Proc: id, Cat: trace.CatComm,
						Name: "timeout", Aux: trace.ClassFault, Arg2: pair(p, peer)})
				} else {
					emit(trace.Event{Kind: trace.KInstant, Proc: id, Cat: trace.CatEdge,
						Name: trace.EdgeRetry, Arg: 1, Arg2: pair(p, peer)})
				}
			case 5: // revival: the rejoin edge blames the rejoiner
				emit(trace.Event{Kind: trace.KInstant, Proc: id, Cat: trace.CatEdge,
					Name: trace.EdgeRejoin, Arg2: pair(p, p)})
			}
			if ps.span {
				ps.span = false
				emit(trace.Event{Kind: trace.KSpanEnd, Proc: id, Cat: "upc"})
			}
			continue
		}
		ps.parked = true
		ps.kind = rng.Intn(8)
		reason := "event"
		switch ps.kind {
		case 0: // barrier or collective generation
			site := sites[rng.Intn(2)]
			name := "barrier"
			if site == "coll" {
				name = "collective"
			}
			if rng.Intn(4) == 0 {
				gen[site]++
			}
			ps.span = true
			emit(trace.Event{Kind: trace.KSpanBegin, Proc: id, Cat: "upc", Name: name})
			emit(trace.Event{Kind: trace.KInstant, Proc: id, Cat: trace.CatEdge,
				Name: trace.EdgeBarArrive, Aux: site, Arg: gen[site], Arg2: self(p)})
			if rng.Intn(3) == 0 {
				emit(trace.Event{Kind: trace.KInstant, Proc: int32(peer), Cat: trace.CatEdge,
					Name: trace.EdgeBarRelease, Aux: site, Arg: gen[site], Arg2: self(peer)})
			}
		case 1:
			if rng.Intn(2) == 0 {
				ps.span = true
				emit(trace.Event{Kind: trace.KSpanBegin, Proc: id, Cat: "upc", Name: "lock"})
			} else {
				reason = "upc-lock"
			}
		case 2:
			reason = "mpi-recv"
		case 3:
			reason = "event-timeout"
		case 4: // transfer completion after a comm-matrix instant
			name := []string{"put", "get", "send", "am"}[rng.Intn(4)]
			emit(trace.Event{Kind: trace.KInstant, Proc: id, Cat: trace.CatComm,
				Name: name, Aux: classes[rng.Intn(len(classes))], Arg: 8, Arg2: pair(p, peer)})
			if rng.Intn(4) == 0 {
				reason = "event-timeout"
			}
		case 5:
			reason = []string{"upc-revive", "uts-revive"}[rng.Intn(2)]
		case 6:
			reason = []string{"uts-idle", "barrier", "sleep"}[rng.Intn(3)]
		case 7:
			reason = []string{"advance", "yield"}[rng.Intn(2)]
		}
		emit(trace.Event{Kind: trace.KProcPark, Proc: id, Aux: reason})
	}
	for p := 0; p < procs; p++ {
		if st[p].parked {
			emit(trace.Event{Kind: trace.KProcUnpark, Proc: int32(p)})
		}
		now += int64(rng.Intn(3))
		emit(trace.Event{Kind: trace.KProcExit, Proc: int32(p)})
	}
	return evs
}

// syntheticStream is three runs of syntheticRun from one seed.
func syntheticStream(seed int64, procs, steps int) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	var evs []trace.Event
	for r := int64(0); r < 3; r++ {
		evs = syntheticRun(evs, rng, seed+r, procs, steps)
	}
	return evs
}

// TestSyntheticStreamGolden pins Export and FoldedText of a multi-run
// stream carrying every wait class to recorded text
// (testdata/synthetic.json, .folded), first written by the recorder's
// string-keyed 96-byte wait record: the record's layout is internal,
// its analysis is not.
func TestSyntheticStreamGolden(t *testing.T) {
	rec := NewRecorder()
	for _, e := range syntheticStream(7, 12, 6000) {
		rec.Emit(e)
	}
	exp := rec.Export()
	var got bytes.Buffer
	if err := exp.Write(&got); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ra := range exp.Runs {
		for _, wc := range ra.WaitClasses {
			seen[wc.Class] = len(wc.Blamed) > 0 || seen[wc.Class]
		}
	}
	for _, c := range []string{ClassBarrier, ClassCollective, ClassLock, ClassLateSender, ClassFaultRetry} {
		if !seen[c] {
			t.Errorf("stream has no blamed %s waits", c)
		}
	}
	check := func(path, got string) {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from the recorded golden text", path)
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Errorf("first difference at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
					break
				}
			}
		}
	}
	check("testdata/synthetic.json", got.String())
	check("testdata/synthetic.folded", rec.FoldedText())
}

// rootBlameLinear is the blame walk as first written, kept as the
// reference for rootBlame: it scans the blamed proc's waits backwards
// from the newest and skips every wait that ended after at.
func rootBlameLinear(r *run, tid int, at, lo int64) int {
	seen := map[int]bool{}
	for depth := 0; depth < 8 && !seen[tid]; depth++ {
		seen[tid] = true
		p, ok := r.threadProc[tid]
		if !ok {
			break
		}
		ps := r.lookup(p)
		var next *wait
		for i := len(ps.waits) - 1; i >= 0; i-- {
			w := &ps.waits[i]
			if w.end > at {
				continue
			}
			if w.end < lo || at-w.end > w.end-w.begin {
				break
			}
			if w.blamedThread >= 0 && int(w.blamedThread) != tid {
				next = w
			}
			break
		}
		if next == nil {
			break
		}
		tid, at = int(next.blamedThread), next.end
	}
	return tid
}

// TestRootBlameMatchesLinearWalk checks the binary-search blame walk
// against the linear reference on an open run with thousands of waits
// per proc: at every blamed wait's own window, at windows that end on a
// tie of several waits' ends, and at windows that exclude every wait.
func TestRootBlameMatchesLinearWalk(t *testing.T) {
	rec := NewRecorder()
	for _, e := range syntheticRun(nil, rand.New(rand.NewSource(11)), 11, 6, 60000) {
		rec.Emit(e)
	}
	r := rec.cur // still open: only Export or the next run closes it
	rng := rand.New(rand.NewSource(12))
	calls, chains, ties, empty := 0, 0, 0, 0
	check := func(tid int, at, lo int64) {
		calls++
		got, want := r.rootBlame(tid, at, lo), rootBlameLinear(r, tid, at, lo)
		if got != want {
			t.Fatalf("rootBlame(%d, %d, %d) = %d, linear walk says %d", tid, at, lo, got, want)
		}
		if got != tid {
			chains++
		}
	}
	for _, id := range r.order {
		ps := r.lookup(id)
		if len(ps.waits) < 2000 {
			t.Fatalf("proc %d holds %d waits, want thousands", id, len(ps.waits))
		}
		for i := range ps.waits {
			w := &ps.waits[i]
			if i > 0 && ps.waits[i-1].end == w.end {
				ties++
			}
			if w.blamedThread >= 0 {
				check(int(w.blamedThread), w.end, w.begin)
			}
		}
		first := ps.waits[0].end
		for _, tid := range []int{ps.thread, -5, 1 << 20} {
			empty++
			check(tid, first-1, 0) // every wait ends after the window
			check(tid, -1, -1)
		}
	}
	for i := 0; i < 20000; i++ {
		at := rng.Int63n(r.maxTime + 2)
		check(rng.Intn(8), at, at-rng.Int63n(200))
	}
	if chains == 0 || ties == 0 || empty == 0 {
		t.Errorf("%d calls: %d chains, %d tied ends, %d empty windows; want some of each", calls, chains, ties, empty)
	}
}

// TestWaitRecordSize pins the per-wait record, which a run holds once
// per completed wait until it closes, to 32 bytes.
func TestWaitRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(wait{}); n > 32 {
		t.Errorf("wait record is %d bytes, want <= 32", n)
	}
}
