package trace

import "testing"

// numbered returns n distinct events, event i carrying i in Arg.
func numbered(from, n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Time: int64(from + i), Kind: KInstant, Name: "e", Arg: int64(from + i)}
	}
	return evs
}

func TestBufferReplayAcrossChunks(t *testing.T) {
	for _, n := range []int{0, 1, chunkEvents - 1, chunkEvents, chunkEvents + 1, 3*chunkEvents + 7} {
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
		b.ReplayInto(got)
		evs := got.Events()
		if len(evs) != n {
			t.Fatalf("n=%d: replayed %d events", n, len(evs))
		}
		for i, e := range evs {
			if e.Arg != int64(i) {
				t.Fatalf("n=%d: replayed event %d carries %d", n, i, e.Arg)
			}
		}
		// A replayed buffer is empty and records afresh.
		if b.Len() != 0 || len(b.Events()) != 0 {
			t.Fatalf("n=%d: replayed buffer still holds %d events", n, b.Len())
		}
		b.Emit(Event{Arg: -1})
		if evs := b.Events(); len(evs) != 1 || evs[0].Arg != -1 {
			t.Fatalf("n=%d: reused buffer holds %+v", n, evs)
		}
	}
}

// TestBufferRecycledChunksStartEmpty: chunks a replay returns to the pool
// carry the old events; a buffer that picks them up must show only its
// own.
func TestBufferRecycledChunksStartEmpty(t *testing.T) {
	for round := 0; round < 4; round++ {
		old := NewBuffer()
		for _, e := range numbered(1000000, 2*chunkEvents+5) {
			old.Emit(e)
		}
		old.ReplayInto(NewDigest())
		for _, n := range []int{0, 1, 17, chunkEvents + 3} {
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
			b.ReplayInto(NewDigest())
		}
	}
}

// TestBufferReplayDigest: a buffered stream replays into the same digest
// as the stream itself.
func TestBufferReplayDigest(t *testing.T) {
	direct, replayed := NewDigest(), NewDigest()
	b := NewBuffer()
	for _, e := range numbered(0, 2*chunkEvents+1) {
		direct.Emit(e)
		b.Emit(e)
	}
	b.ReplayInto(replayed)
	if direct.Sum64() != replayed.Sum64() || direct.Events() != replayed.Events() {
		t.Fatalf("replayed digest %s (%d), direct %s (%d)", replayed, replayed.Events(), direct, direct.Events())
	}
}
