package trace

// Buffer is a Tracer that records the event stream in memory for later
// replay. It is the building block of deterministic parallel sweeps: a
// simulation that runs ahead of an earlier, unfinished one traces into
// its own Buffer, which is replayed into the real sink as soon as every
// earlier run has been delivered, producing a stream — and therefore a
// Digest — identical to a sequential execution. Like every Tracer it needs no
// locking: a single engine delivers events from one goroutine at a time.
type Buffer struct {
	events []Event
}

// NewBuffer returns an empty recording sink that opts into nothing.
func NewBuffer() *Buffer { return &Buffer{} }

// Emit records e.
func (b *Buffer) Emit(e Event) { b.events = append(b.events, e) }

// Len reports the number of recorded events.
func (b *Buffer) Len() int { return len(b.events) }

// ReplayInto delivers the recorded stream to t in emission order.
func (b *Buffer) ReplayInto(t Tracer) {
	for _, e := range b.events {
		t.Emit(e)
	}
}

// Events exposes the recorded stream. The slice is the buffer's live
// backing store: read it, do not retain it across an Emit.
func (b *Buffer) Events() []Event { return b.events }
