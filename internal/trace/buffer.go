package trace

import "sync" //upcvet:rawgo -- host-side chunk pool shared across sweep workers; not simulated concurrency

// chunkEvents is the capacity of one Buffer chunk (160 KiB of events).
const chunkEvents = 2048

type chunk [chunkEvents]Event

// chunkPool recycles chunks across buffers: a parallel sweep fills and
// replays one buffer per job, and reusing the replayed chunks keeps both
// the allocation rate and the peak heap flat however long the sweep.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// Buffer is a Tracer that records the event stream in memory for later
// replay. It is the building block of deterministic parallel sweeps: a
// simulation that runs ahead of an earlier, unfinished one traces into
// its own Buffer, which is replayed into the real sink as soon as every
// earlier run has been delivered, producing a stream — and therefore a
// Digest — identical to a sequential execution. Like every Tracer it needs no
// locking: a single engine delivers events from one goroutine at a time.
//
// Events are stored in fixed-size chunks taken from a shared pool, so a
// growing buffer never copies what it already holds, and ReplayInto hands
// each chunk back as soon as it has been delivered. The zero value is an
// empty buffer.
type Buffer struct {
	chunks []*chunk
	n      int // recorded events; the last chunk holds the tail
}

// NewBuffer returns an empty recording sink that opts into nothing.
func NewBuffer() *Buffer { return &Buffer{} }

// Emit records e.
func (b *Buffer) Emit(e Event) {
	i := b.n % chunkEvents
	if i == 0 {
		b.chunks = append(b.chunks, chunkPool.Get().(*chunk))
	}
	b.chunks[len(b.chunks)-1][i] = e
	b.n++
}

// Len reports the number of recorded events.
func (b *Buffer) Len() int { return b.n }

// filled reports chunk k's recorded events.
func (b *Buffer) filled(k int) []Event {
	if k == len(b.chunks)-1 {
		return b.chunks[k][:b.n-k*chunkEvents]
	}
	return b.chunks[k][:]
}

// ReplayInto delivers the recorded stream to t in emission order and
// empties the buffer, returning each chunk to the pool once delivered.
func (b *Buffer) ReplayInto(t Tracer) {
	for k := range b.chunks {
		for _, e := range b.filled(k) {
			t.Emit(e)
		}
		chunkPool.Put(b.chunks[k])
		b.chunks[k] = nil
	}
	b.chunks, b.n = b.chunks[:0], 0
}

// Events returns a copy of the recorded stream.
func (b *Buffer) Events() []Event {
	out := make([]Event, 0, b.n)
	for k := range b.chunks {
		out = append(out, b.filled(k)...)
	}
	return out
}
