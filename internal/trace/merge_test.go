package trace

import (
	"math/rand"
	"sort"
	"testing"
)

// TestMergeStreams checks the (Time, stream index) order against a
// reference stable sort, on randomized time-sorted streams with heavy
// timestamp collisions.
func TestMergeStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(6)
		streams := make([][]Event, k)
		type keyed struct {
			e      Event
			stream int
			pos    int
		}
		var all []keyed
		for i := range streams {
			n := rng.Intn(20)
			now := int64(0)
			for j := 0; j < n; j++ {
				now += int64(rng.Intn(3)) // frequent equal timestamps
				e := Event{Time: now, Kind: KInstant, Proc: int32(i), Arg: int64(j)}
				streams[i] = append(streams[i], e)
				all = append(all, keyed{e, i, j})
			}
		}
		sort.SliceStable(all, func(a, b int) bool {
			if all[a].e.Time != all[b].e.Time {
				return all[a].e.Time < all[b].e.Time
			}
			if all[a].stream != all[b].stream {
				return all[a].stream < all[b].stream
			}
			return all[a].pos < all[b].pos
		})
		var got Buffer
		MergeStreams(&got, streams)
		if got.Len() != len(all) {
			t.Fatalf("trial %d: merged %d events, want %d", trial, got.Len(), len(all))
		}
		for i, e := range got.Events() {
			if e != all[i].e {
				t.Fatalf("trial %d: event %d = %+v, want %+v", trial, i, e, all[i].e)
			}
		}
	}
}

// TestMergeStreamsDigest: merging must be reference-equal for the
// digest too.
func TestMergeStreamsDigest(t *testing.T) {
	a := []Event{{Time: 1, Name: "a1"}, {Time: 5, Name: "a2"}}
	b := []Event{{Time: 1, Name: "b1"}, {Time: 1, Name: "b2"}, {Time: 9, Name: "b3"}}
	d := NewDigest()
	MergeStreams(d, [][]Event{a, b})
	ref := NewDigest()
	for _, e := range []Event{a[0], b[0], b[1], a[1], b[2]} {
		ref.Emit(e)
	}
	if d.Sum64() != ref.Sum64() || d.Events() != 5 {
		t.Fatalf("digest %016x (%d), want %016x (5)", d.Sum64(), d.Events(), ref.Sum64())
	}
}

// mergeRef is the reference order: stable sort by (Time, stream index,
// intra-stream position).
func mergeRef(streams [][]Event) []Event {
	type keyed struct {
		e           Event
		stream, pos int
	}
	var all []keyed
	for i, s := range streams {
		for j, e := range s {
			all = append(all, keyed{e, i, j})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].e.Time != all[b].e.Time {
			return all[a].e.Time < all[b].e.Time
		}
		if all[a].stream != all[b].stream {
			return all[a].stream < all[b].stream
		}
		return all[a].pos < all[b].pos
	})
	out := make([]Event, len(all))
	for i, k := range all {
		out[i] = k.e
	}
	return out
}

// checkMerge asserts MergeStreams equals the reference order.
func checkMerge(t *testing.T, name string, streams [][]Event) {
	t.Helper()
	want := mergeRef(streams)
	var got Buffer
	MergeStreams(&got, streams)
	if got.Len() != len(want) {
		t.Fatalf("%s: merged %d events, want %d", name, got.Len(), len(want))
	}
	for i, e := range got.Events() {
		if e != want[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", name, i, e, want[i])
		}
	}
}

// TestMergeStreamsTieBreaks pins the ordering contract at its edges
// (a "lane" is one input stream): every-lane ties at a single instant,
// long equal-time bursts within one lane racing a lower lane's single
// event, byte-identical events duplicated across lanes, and lanes that
// drain at different rates (including empty ones).
func TestMergeStreamsTieBreaks(t *testing.T) {
	ev := func(lane int32, tm int64, j int64) Event {
		return Event{Time: tm, Kind: KInstant, Proc: lane, Arg: j}
	}
	t.Run("all-lanes-equal-time", func(t *testing.T) {
		// Three lanes, every event at t=7: output must be lane 0's burst,
		// then lane 1's, then lane 2's, each in emission order.
		streams := [][]Event{
			{ev(0, 7, 0), ev(0, 7, 1)},
			{ev(1, 7, 0), ev(1, 7, 1), ev(1, 7, 2)},
			{ev(2, 7, 0)},
		}
		checkMerge(t, "all-equal", streams)
	})
	t.Run("burst-vs-lower-lane", func(t *testing.T) {
		// Lane 1 has a long burst at t=5; lane 0 reaches t=5 with a single
		// event. Lane 0 must cut in before the whole burst, not after.
		streams := [][]Event{
			{ev(0, 5, 0)},
			{ev(1, 3, 0), ev(1, 5, 1), ev(1, 5, 2), ev(1, 5, 3)},
		}
		checkMerge(t, "burst", streams)
		var got Buffer
		MergeStreams(&got, streams)
		es := got.Events()
		if es[1] != streams[0][0] {
			t.Errorf("lane 0's t=5 event must precede lane 1's t=5 burst, got %+v", es[:2])
		}
	})
	t.Run("cross-lane-duplicates", func(t *testing.T) {
		// The same payload in two lanes (a broadcast observed everywhere):
		// both copies survive, lower lane first.
		dup := Event{Time: 4, Kind: KInstant, Name: "dup"}
		streams := [][]Event{{dup}, {dup}, {dup}}
		checkMerge(t, "dups", streams)
		var got Buffer
		MergeStreams(&got, streams)
		if got.Len() != 3 {
			t.Fatalf("duplicates collapsed: %d events, want 3", got.Len())
		}
	})
	t.Run("empty-and-uneven-lanes", func(t *testing.T) {
		streams := [][]Event{
			nil,
			{ev(1, 1, 0), ev(1, 1, 1)},
			nil,
			{ev(3, 0, 0), ev(3, 1, 0), ev(3, 2, 0)},
		}
		checkMerge(t, "uneven", streams)
	})
}

// TestMergeStreamsChaos hammers the tie-break with adversarial random
// streams: tiny time domains (so nearly everything collides), identical
// events appearing in multiple lanes, and lanes of wildly different
// lengths. The merged order must match the reference stable sort on
// every trial.
func TestMergeStreamsChaos(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(7)
		maxT := 1 + rng.Intn(4) // 1..4 distinct timestamps: constant ties
		streams := make([][]Event, k)
		for i := range streams {
			n := rng.Intn(12)
			now := int64(rng.Intn(maxT))
			for j := 0; j < n; j++ {
				if rng.Intn(3) == 0 {
					now += int64(rng.Intn(maxT))
				}
				e := Event{Time: now, Kind: KInstant, Arg: int64(rng.Intn(2))}
				if rng.Intn(4) == 0 {
					e.Proc = int32(i) // sometimes lane-identifying, sometimes not
				}
				streams[i] = append(streams[i], e)
			}
		}
		checkMerge(t, "chaos", streams)
	}
}
