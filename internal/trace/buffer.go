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
	// The opt-in capabilities the buffer advertises to the emitters.
	clock, util, edge bool
}

// NewBuffer returns an empty recording sink that opts into nothing.
func NewBuffer() *Buffer { return &Buffer{} }

// NewBufferFor returns an empty recording sink that advertises sink's
// opt-in capabilities (per-advance clocks, link occupancy, completion
// edges) as its own. The engines and fabrics that trace into the buffer
// only see the buffer, so without them they would silently skip those
// events and the stream later replayed into sink would differ from one
// emitted into sink directly. A nil sink opts into nothing.
func NewBufferFor(sink Tracer) *Buffer {
	return &Buffer{clock: WantsClock(sink), util: WantsUtil(sink), edge: WantsEdge(sink)}
}

// ObserveClock reports whether the buffer records KClock events.
func (b *Buffer) ObserveClock() bool { return b.clock }

// ObserveUtil reports whether the buffer records link-occupancy events.
func (b *Buffer) ObserveUtil() bool { return b.util }

// ObserveEdge reports whether the buffer records completion-edge events.
func (b *Buffer) ObserveEdge() bool { return b.edge }

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
// backing store: read it, do not retain it across a Reset or Emit.
func (b *Buffer) Events() []Event { return b.events }

// Reset discards the recorded stream, keeping the backing array for
// reuse. Sharded execution drains each lane's buffer at every window
// barrier, so the steady-state allocation cost of per-lane tracing is
// zero.
func (b *Buffer) Reset() { b.events = b.events[:0] }
