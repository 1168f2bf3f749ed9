package trace

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic" //upcvet:rawgo -- a recorder and a replayer on two goroutines, as in a parallel sweep
	"testing"
)

// numbered returns n distinct events, event i carrying i in Arg.
func numbered(from, n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Time: int64(from + i), Kind: KInstant, Name: "e", Arg: int64(from + i)}
	}
	return evs
}

// perChunk is a count of small events that spills over several chunks.
const perChunk = chunkBytes / 8

func TestBufferReplayAcrossChunks(t *testing.T) {
	for _, n := range []int{0, 1, perChunk - 1, perChunk, perChunk + 1, 3*perChunk + 7} {
		var b Buffer
		for _, e := range numbered(0, n) {
			b.Emit(e)
		}
		if b.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, b.Len())
		}
		if got := b.Events(); len(got) != n {
			t.Fatalf("n=%d: Events() holds %d events", n, len(got))
		}
		got := NewBuffer()
		b.Seal()
		b.ReplaySealed(got)
		evs := got.Events()
		if len(evs) != n {
			t.Fatalf("n=%d: replayed %d events", n, len(evs))
		}
		for i, e := range evs {
			if e.Arg != int64(i) {
				t.Fatalf("n=%d: replayed event %d carries %d", n, i, e.Arg)
			}
		}
		// A replayed buffer holds nothing and records afresh.
		if evs := b.Events(); len(evs) != 0 {
			t.Fatalf("n=%d: replayed buffer still holds %d events", n, len(evs))
		}
		b.Emit(Event{Time: 5, Arg: -1})
		if evs := b.Events(); len(evs) != 1 || evs[0] != (Event{Time: 5, Arg: -1}) {
			t.Fatalf("n=%d: reused buffer holds %+v", n, evs)
		}
	}
}

// TestBufferRecycledChunksStartEmpty: chunks a replay returns to the pool
// carry the old log; a buffer that picks them up must show only its own.
func TestBufferRecycledChunksStartEmpty(t *testing.T) {
	for round := 0; round < 4; round++ {
		old := NewBuffer()
		for _, e := range numbered(1000000, 2*perChunk+5) {
			old.Emit(e)
		}
		old.Seal()
		old.ReplaySealed(NewDigest())
		for _, n := range []int{0, 1, 17, perChunk + 3} {
			b := NewBuffer()
			for _, e := range numbered(0, n) {
				b.Emit(e)
			}
			evs := b.Events()
			if len(evs) != n || b.Len() != n {
				t.Fatalf("round %d: buffer of %d shows %d events (Len %d)", round, n, len(evs), b.Len())
			}
			for i, e := range evs {
				if e.Arg != int64(i) {
					t.Fatalf("round %d: event %d of %d carries %d", round, i, n, e.Arg)
				}
			}
			b.Seal()
			b.ReplaySealed(NewDigest())
		}
	}
}

// TestBufferReplayDigest: a buffered stream replays into the same digest
// as the stream itself.
func TestBufferReplayDigest(t *testing.T) {
	direct, replayed := NewDigest(), NewDigest()
	b := NewBuffer()
	for _, e := range numbered(0, 2*perChunk+1) {
		direct.Emit(e)
		b.Emit(e)
	}
	b.Seal()
	b.ReplaySealed(replayed)
	if direct.Sum64() != replayed.Sum64() || direct.Events() != replayed.Events() {
		t.Fatalf("replayed digest %s (%d), direct %s (%d)", replayed, replayed.Events(), direct, direct.Events())
	}
}

// edgeEvents are the values a round trip must survive.
func edgeEvents() []Event {
	// Equal content at distinct addresses, built at run time.
	dup1 := strings.Repeat("ab", 3)
	dup2 := string([]byte("ababab"))
	// Same length and first and last two bytes: one cache slot.
	return []Event{
		{Time: 0, Kind: KRunBegin, Proc: EngineProc, Arg: 7},
		{Time: 1 << 40, Kind: KProcSpawn, Proc: 0, Name: "thread0"},
		{Time: 1<<40 + 3, Kind: KInstant, Proc: math.MaxInt32, Cat: "fabric", Name: "put", Aux: "network",
			Arg: math.MinInt64, Arg2: math.MaxInt64},
		{Time: math.MaxInt64, Kind: KCounter, Proc: math.MinInt32, Arg: math.MaxInt64, Arg2: math.MinInt64},
		{Time: math.MinInt64, Kind: KInstant, Proc: 200, Name: dup1, Aux: dup2},
		{Time: 0, Kind: KRunBegin, Proc: EngineProc, Arg: -1},
		{Time: 2, Kind: KProcPark, Proc: 127, Cat: "axzb", Name: "ayzb", Aux: "axzb"},
		{Time: 2, Kind: KProcUnpark, Proc: 126, Cat: "ayzb", Name: "", Aux: "ayzb"},
		{Time: -5, Kind: Kind(255), Proc: -2, Cat: dup2, Name: dup1},
	}
}

// randomEvents draws n events from a small string pool with runs of
// rising times broken by run boundaries.
func randomEvents(rng *rand.Rand, n int) []Event {
	pool := []string{"", "sim", "fabric", "upc", "put", "get", "event", "advance", "axzb", "ayzb", "a", "b"}
	for i := 0; i < 40; i++ {
		pool = append(pool, "thread"+strconv.Itoa(i))
	}
	pick := func() string {
		s := pool[rng.Intn(len(pool))]
		if rng.Intn(4) == 0 {
			s = string([]byte(s)) // a fresh copy
		}
		return s
	}
	wide := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return int64(rng.Intn(200)) - 100
		case 1:
			return math.MinInt64 + int64(rng.Intn(3))
		case 2:
			return math.MaxInt64 - int64(rng.Intn(3))
		}
		return int64(rng.Uint64())
	}
	evs := make([]Event, n)
	var now int64
	for i := range evs {
		e := Event{Kind: Kind(1 + rng.Intn(9)), Proc: int32(rng.Intn(300)) - 1,
			Cat: pick(), Name: pick(), Aux: pick(), Arg: wide(), Arg2: wide()}
		if rng.Intn(500) == 0 {
			now = 0
			e.Kind = KRunBegin
		} else {
			now += int64(rng.Intn(1 << uint(rng.Intn(40))))
		}
		e.Time = now
		evs[i] = e
	}
	return evs
}

// TestBufferRoundTrip: every recorded event comes back field for field,
// through Events and through a replay, on a fresh buffer and on one
// whose string table earlier streams filled.
func TestBufferRoundTrip(t *testing.T) {
	if cacheSlot("axzb") != cacheSlot("ayzb") {
		t.Fatal("axzb and ayzb take different cache slots; the events need a pair that shares one")
	}
	rng := rand.New(rand.NewSource(1))
	b := NewBuffer()
	for trial := 0; trial < 20; trial++ {
		evs := edgeEvents()
		evs = append(evs, randomEvents(rng, rng.Intn(3*perChunk))...)
		evs = append(evs, edgeEvents()...)
		for _, e := range evs {
			b.Emit(e)
		}
		if got := b.Events(); !equalEvents(got, evs) {
			t.Fatalf("trial %d: Events() differs from the recorded stream", trial)
		}
		var got eventList
		b.Seal()
		b.ReplaySealed(&got)
		if !equalEvents(got, evs) {
			t.Fatalf("trial %d: replay differs from the recorded stream", trial)
		}
		if left := b.Events(); len(left) != 0 {
			t.Fatalf("trial %d: %d events left after replay", trial, len(left))
		}
	}
}

func equalEvents(got, want []Event) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestBufferWarmCycleAllocatesNothing: once a buffer has recorded and
// replayed a stream, recording it again takes its chunks from the pool
// and every string from the table, and replaying its sealed chunks while
// it records, as a parallel sweep's deliverer does once a buffered job
// becomes head, takes nothing either.
func TestBufferWarmCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops chunks at random")
	}
	evs := randomEvents(rand.New(rand.NewSource(2)), 2*perChunk)
	b := NewBuffer()
	sink := NewDigest()
	cycle := func() {
		for i := range evs {
			b.Emit(evs[i])
			if i%(perChunk/2) == 0 {
				b.ReplaySealed(sink)
			}
		}
		b.Seal()
		b.ReplaySealed(sink)
	}
	cycle()
	if n := testing.AllocsPerRun(5, cycle); n != 0 {
		t.Fatalf("warm Emit/Seal/ReplaySealed cycle: %v allocs, want 0", n)
	}
}

// TestBufferSealedReplayConcurrent replays sealed chunks on one goroutine
// while another keeps recording, sealing now and then, and naming
// strings the buffer has not seen before; the replayed stream must equal
// the recorded one.
func TestBufferSealedReplayConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	evs := randomEvents(rng, 5*perChunk)
	for i := range evs {
		if i%97 == 0 {
			evs[i].Name = "fresh" + strconv.Itoa(i)
		}
	}
	ref := NewBuffer()
	for _, e := range evs {
		ref.Emit(e)
	}
	want := ref.Events()

	b := NewBuffer()
	var done atomic.Bool
	go func() { //upcvet:rawgo -- the recorder, concurrent with the replay below
		for i, e := range evs {
			b.Emit(e)
			if i%(perChunk/3) == 0 {
				b.Seal()
			}
		}
		b.Seal()
		done.Store(true)
	}()
	var got eventList
	for !done.Load() {
		b.ReplaySealed(&got)
	}
	b.ReplaySealed(&got)
	if !equalEvents(got, want) {
		t.Fatalf("replayed %d events, differing from the %d recorded", len(got), len(want))
	}
	if evs := b.Events(); len(evs) != 0 {
		t.Fatalf("buffer still holds %d events after the replay", len(evs))
	}
}
