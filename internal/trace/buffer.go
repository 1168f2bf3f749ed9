package trace

import "sync" //upcvet:rawgo -- host-side chunk pool and sealed-chunk handoff between sweep goroutines; not simulated concurrency

// Buffer is a Tracer that records the event stream in memory for later
// replay. It is the building block of deterministic parallel sweeps: a
// simulation that runs ahead of an earlier, unfinished one traces into
// its own Buffer, which is replayed into the real sink once every
// earlier run has been delivered, producing a stream — and therefore a
// Digest — identical to a sequential execution. Like every Tracer it
// needs no locking on the recording side: a single engine delivers
// events from one goroutine at a time.
//
// The buffer is a compact event log, about 10 bytes an event against
// the 80 of an Event. Each event is appended as varints: the time as a
// zigzag delta from the previous event's (a KRunBegin makes it
// negative), the kind, the proc, Cat, Name and Aux as indexes into a
// per-buffer string table that keeps the original strings, and the two
// args zigzagged. Events never straddle a chunk; chunks are fixed-size
// byte arrays from a shared pool, so a growing log never copies what it
// already holds, and a replay hands each chunk back as soon as it has
// been delivered. The zero value is an empty buffer.
//
// A chunk is sealed when it fills, or by Seal. A sealed chunk carries
// the time its first event's delta is taken from and a snapshot of the
// string table's slice header; the table is append-only, so every entry
// the chunk names stays where the snapshot sees it however the recorder
// grows the table afterwards. ReplaySealed may therefore drain sealed
// chunks on another goroutine while the recorder keeps emitting.
type Buffer struct {
	cur  logChunk // the chunk being written; c is nil until the next Emit opens one
	n    int      // recorded events
	last int64    // time of the last recorded event

	// strs is the string table: index k > 0 stands for strs[k-1], and 0
	// for "". index finds a string's index; cache, indexed by a hash of a
	// string's length and first and last two bytes, answers most lookups
	// with one comparison, which returns at once for the constant strings
	// the emitters pass, since equal constants share their bytes.
	strs  []string
	index map[string]uint32
	cache [cacheSlots]cached

	// mu guards the sealed chunks, a queue of which sealed[next:] have
	// not been replayed yet.
	mu     sync.Mutex
	sealed []logChunk
	next   int
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

// logChunk is one chunk of a log and what decoding it needs.
type logChunk struct {
	c    *chunk
	used int
	base int64    // time of the event before the chunk's first
	strs []string // the string table, as of the seal
}

// chunkPool recycles chunks across buffers: a parallel sweep fills and
// replays one buffer per job, and reusing the replayed chunks keeps both
// the allocation rate and the peak heap flat however long the sweep.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// NewBuffer returns an empty recording sink that opts into nothing.
func NewBuffer() *Buffer { return &Buffer{} }

// Emit records e.
func (b *Buffer) Emit(e Event) {
	if b.cur.c == nil || b.cur.used > chunkBytes-maxEventBytes {
		b.Seal()
		b.cur = logChunk{c: chunkPool.Get().(*chunk), base: b.last}
	}
	c, i := b.cur.c, b.cur.used
	i = putUvarint(c, i, zigzag(e.Time-b.last))
	c[i] = byte(e.Kind)
	// Proc+1 keeps EngineProc and the first 127 procs to one byte.
	i = putUvarint(c, i+1, uint64(uint32(e.Proc+1)))
	i = putUvarint(c, i, uint64(b.intern(e.Cat)))
	i = putUvarint(c, i, uint64(b.intern(e.Name)))
	i = putUvarint(c, i, uint64(b.intern(e.Aux)))
	i = putUvarint(c, i, zigzag(e.Arg))
	b.cur.used = putUvarint(c, i, zigzag(e.Arg2))
	b.last = e.Time
	b.n++
}

// Seal closes the chunk being written, if any, so that ReplaySealed
// delivers every event recorded so far; the next Emit opens a fresh
// chunk. Like Emit, it must not run concurrently with itself or Emit.
func (b *Buffer) Seal() {
	if b.cur.c == nil {
		return
	}
	b.cur.strs = b.strs
	b.mu.Lock()
	b.sealed = append(b.sealed, b.cur)
	b.mu.Unlock()
	b.cur = logChunk{}
}

// ReplaySealed delivers the events of every sealed chunk not yet
// replayed to t, in emission order, handing each chunk back to the pool
// once delivered. It keeps going while the recorder seals more, and
// returns when none is left. It may run concurrently with Emit and Seal,
// but not with itself.
func (b *Buffer) ReplaySealed(t Tracer) {
	for {
		b.mu.Lock()
		if b.next == len(b.sealed) {
			b.sealed, b.next = b.sealed[:0], 0
			b.mu.Unlock()
			return
		}
		lc := b.sealed[b.next]
		b.sealed[b.next] = logChunk{}
		b.next++
		b.mu.Unlock()
		decode(t, lc)
		chunkPool.Put(lc.c)
	}
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

// Events returns a copy of the recorded stream not yet replayed.
func (b *Buffer) Events() []Event {
	out := make(eventList, 0, b.n)
	for _, lc := range b.sealed[b.next:] {
		decode(&out, lc)
	}
	if b.cur.c != nil {
		lc := b.cur
		lc.strs = b.strs
		decode(&out, lc)
	}
	return out
}

// eventList is a Tracer that collects what it is sent.
type eventList []Event

func (l *eventList) Emit(e Event) { *l = append(*l, e) }

// decode delivers lc's events to t.
func decode(t Tracer, lc logChunk) {
	c, time := lc.c, lc.base
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
		e.Cat = lookup(lc.strs, v)
		v, i = uvarint(c, i)
		e.Name = lookup(lc.strs, v)
		v, i = uvarint(c, i)
		e.Aux = lookup(lc.strs, v)
		v, i = uvarint(c, i)
		e.Arg = unzigzag(v)
		v, i = uvarint(c, i)
		e.Arg2 = unzigzag(v)
		t.Emit(e)
	}
}

// lookup resolves a string-table index.
func lookup(strs []string, k uint64) string {
	if k == 0 {
		return ""
	}
	return strs[k-1]
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
