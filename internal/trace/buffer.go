package trace

import "sync" //upcvet:rawgo -- host-side chunk pool shared across sweep workers; not simulated concurrency

// Buffer is a Tracer that records the event stream in memory for later
// replay. It is the building block of deterministic parallel sweeps: a
// simulation that runs ahead of an earlier, unfinished one traces into
// its own Buffer, which is replayed into the real sink as soon as every
// earlier run has been delivered, producing a stream — and therefore a
// Digest — identical to a sequential execution. Like every Tracer it needs no
// locking: a single engine delivers events from one goroutine at a time.
//
// The buffer is a compact event log, about 10 bytes an event against
// the 80 of an Event. Each event is appended as varints: the time as a
// zigzag delta from the previous event's (a KRunBegin makes it
// negative), the kind, the proc, Cat, Name and Aux as indexes into a
// per-buffer string table that keeps the original strings, and the two
// args zigzagged. Events never straddle a chunk; chunks are fixed-size
// byte arrays from a shared pool, so a growing log never copies what it
// already holds, and ReplayInto hands each chunk back as soon as it has
// been delivered. The zero value is an empty buffer.
type Buffer struct {
	chunks []logChunk
	n      int   // recorded events
	last   int64 // time of the last recorded event

	// strs is the string table: index k > 0 stands for strs[k-1], and 0
	// for "". index finds a string's index; cache, indexed by a hash of a
	// string's length and first and last two bytes, answers most lookups
	// with one comparison, which returns at once for the constant strings
	// the emitters pass, since equal constants share their bytes.
	strs  []string
	index map[string]uint32
	cache [cacheSlots]cached
}

// cached is one string-cache slot; "" marks a free one.
type cached struct {
	s string
	k uint32
}

const (
	// chunkBytes is the size of one log chunk.
	chunkBytes = 64 << 10
	// maxEventBytes bounds one encoded event: time and args take at most
	// ten bytes each, kind one, proc and each string index at most five.
	maxEventBytes = 3*10 + 1 + 4*5
	cacheBits     = 10
	cacheSlots    = 1 << cacheBits
)

type chunk [chunkBytes]byte

// logChunk is one chunk of a log and the bytes it holds.
type logChunk struct {
	c    *chunk
	used int
}

// chunkPool recycles chunks across buffers: a parallel sweep fills and
// replays one buffer per job, and reusing the replayed chunks keeps both
// the allocation rate and the peak heap flat however long the sweep.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// NewBuffer returns an empty recording sink that opts into nothing.
func NewBuffer() *Buffer { return &Buffer{} }

// Emit records e.
func (b *Buffer) Emit(e Event) {
	if len(b.chunks) == 0 || b.chunks[len(b.chunks)-1].used > chunkBytes-maxEventBytes {
		b.chunks = append(b.chunks, logChunk{c: chunkPool.Get().(*chunk)})
	}
	lc := &b.chunks[len(b.chunks)-1]
	c, i := lc.c, lc.used
	i = putUvarint(c, i, zigzag(e.Time-b.last))
	c[i] = byte(e.Kind)
	// Proc+1 keeps EngineProc and the first 127 procs to one byte.
	i = putUvarint(c, i+1, uint64(uint32(e.Proc+1)))
	i = putUvarint(c, i, uint64(b.intern(e.Cat)))
	i = putUvarint(c, i, uint64(b.intern(e.Name)))
	i = putUvarint(c, i, uint64(b.intern(e.Aux)))
	i = putUvarint(c, i, zigzag(e.Arg))
	lc.used = putUvarint(c, i, zigzag(e.Arg2))
	b.last = e.Time
	b.n++
}

// intern returns s's string-table index, through the cache.
func (b *Buffer) intern(s string) uint32 {
	if len(s) == 0 {
		return 0
	}
	slot := &b.cache[cacheSlot(s)]
	if slot.s == s {
		return slot.k
	}
	return b.internMiss(slot, s)
}

// cacheSlot hashes a non-empty string's length and first and last two
// bytes.
func cacheSlot(s string) uint32 {
	n := len(s)
	h := uint32(n) | uint32(s[0])<<8 | uint32(s[n-1])<<16 | uint32(s[max(n-2, 0)])<<24
	return (h * 0x9E3779B1) >> (32 - cacheBits)
}

// internMiss finds s in the string table, adding it on first sight, and
// caches it in slot.
func (b *Buffer) internMiss(slot *cached, s string) uint32 {
	k, ok := b.index[s]
	if !ok {
		if b.index == nil {
			b.index = map[string]uint32{}
		}
		b.strs = append(b.strs, s)
		k = uint32(len(b.strs))
		b.index[s] = k
	}
	*slot = cached{s, k}
	return k
}

// Len reports the number of recorded events.
func (b *Buffer) Len() int { return b.n }

// ReplayInto delivers the recorded stream to t in emission order and
// empties the buffer, returning each chunk to the pool once delivered.
func (b *Buffer) ReplayInto(t Tracer) {
	var time int64
	for k, lc := range b.chunks {
		time = b.decode(t, lc, time)
		chunkPool.Put(lc.c)
		b.chunks[k] = logChunk{}
	}
	clear(b.strs)
	clear(b.index)
	clear(b.cache[:])
	b.chunks, b.strs, b.n, b.last = b.chunks[:0], b.strs[:0], 0, 0
}

// Events returns a copy of the recorded stream.
func (b *Buffer) Events() []Event {
	out := make(eventList, 0, b.n)
	var time int64
	for _, lc := range b.chunks {
		time = b.decode(&out, lc, time)
	}
	return out
}

// eventList is a Tracer that collects what it is sent.
type eventList []Event

func (l *eventList) Emit(e Event) { *l = append(*l, e) }

// decode delivers lc's events to t. time is the time of the event
// before the chunk's first; decode returns the time of its last.
func (b *Buffer) decode(t Tracer, lc logChunk, time int64) int64 {
	c := lc.c
	var e Event
	for i := 0; i < lc.used; {
		var v uint64
		v, i = uvarint(c, i)
		time += unzigzag(v)
		e.Time = time
		e.Kind = Kind(c[i])
		v, i = uvarint(c, i+1)
		e.Proc = int32(uint32(v)) - 1
		v, i = uvarint(c, i)
		e.Cat = b.str(v)
		v, i = uvarint(c, i)
		e.Name = b.str(v)
		v, i = uvarint(c, i)
		e.Aux = b.str(v)
		v, i = uvarint(c, i)
		e.Arg = unzigzag(v)
		v, i = uvarint(c, i)
		e.Arg2 = unzigzag(v)
		t.Emit(e)
	}
	return time
}

// str resolves a string-table index.
func (b *Buffer) str(k uint64) string {
	if k == 0 {
		return ""
	}
	return b.strs[k-1]
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// putUvarint writes v at c[i:] and returns the offset past it. Values
// below 128, the common case, take one compare and one store.
func putUvarint(c *chunk, i int, v uint64) int {
	for v >= 0x80 {
		c[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	c[i] = byte(v)
	return i + 1
}

// uvarint reads the varint at c[i:] and returns it with the offset past
// it. A value below 128 returns at the first byte.
func uvarint(c *chunk, i int) (uint64, int) {
	b := c[i]
	if b < 0x80 {
		return uint64(b), i + 1
	}
	v := uint64(b & 0x7f)
	for s := uint(7); ; s += 7 {
		i++
		b = c[i]
		if b < 0x80 {
			return v | uint64(b)<<s, i + 1
		}
		v |= uint64(b&0x7f) << s
	}
}
