package upc

import "repro/internal/sim"

// Shared-pointer translation cost model. A fine-grained shared access
// (ReadElem / WriteElem) decodes (thread, block, offset) from the
// shared pointer before it can touch memory — the per-access overhead
// Table 3.1 shows dominating un-cast UPC shared access. Three regimes,
// selected by the machine model (see topo.Machine and the "+xcache" /
// "+xassist" preset suffixes):
//
//   - software: every access pays the full decode, Machine.PtrXlate
//     seconds (the Berkeley runtime's measured deref cost);
//   - cached: a per-thread translation cache keyed by (array, block)
//     holds completed decodes; a hit re-derives only the offset within
//     the cached block (xlateHitFraction of the full decode), a miss
//     pays the full decode and installs the entry;
//   - hardware assist: the decode retires in one core cycle, the
//     Serres-style hardware-assisted translation regime — effectively
//     free at the simulator's nanosecond resolution.
//
// Accounting is exact and deterministic: per-thread counters accumulate
// accesses, hits and misses, and each barrier flushes the deltas as
// trace counters (xlate_access / xlate_hit / xlate_miss), so metrics
// manifests carry identical totals at any -parallel setting.

const (
	// xlateHitFraction is the share of the full software decode a
	// translation-cache hit still pays: the offset re-derivation within a
	// block whose (thread, base) decode is cached.
	xlateHitFraction = 0.25
	// xlateWays is the cache associativity. A small set-associative array
	// with per-set LRU keeps lookups allocation-free and the replacement
	// sequence a pure function of the access stream.
	xlateWays = 4
)

// xlateCosts are the per-access charges of the three regimes, resolved
// once per runtime from the machine model.
type xlateCosts struct {
	miss   sim.Duration // full software decode (PtrXlate)
	hit    sim.Duration // offset-only re-derivation
	assist sim.Duration // one core cycle, truncated to simulator resolution
	cached bool         // machine has a translation cache
	hw     bool         // machine has hardware assist
}

// xlateState is one thread's translation accounting: running totals plus
// the high-water marks already flushed as trace counters.
type xlateState struct {
	cache                  *xlateCache
	accesses, hits, misses int64
	emitted                [3]int64 // flushed access/hit/miss totals
}

// xlateAccess charges one fine-grained translation for block blockNum of
// shared array id, under the machine's translation regime.
func (t *Thread) xlateAccess(id uint32, blockNum int) {
	rt := t.rt
	t.xl.accesses++
	if rt.xlate.hw {
		t.P.Advance(rt.xlate.assist)
		return
	}
	if rt.xlate.cached {
		if t.xl.cache == nil {
			t.xl.cache = newXlateCache(rt.Cfg.Machine.XlateCacheLines)
		}
		if t.xl.cache.lookup(uint64(id+1)<<32 | uint64(uint32(blockNum))) {
			t.xl.hits++
			t.P.Advance(rt.xlate.hit)
			return
		}
	}
	t.xl.misses++
	t.P.Advance(rt.xlate.miss)
}

// XlateStats reports this thread's translation accounting so far:
// total fine-grained accesses, cache hits, and full decodes (misses; on
// machines without a translation cache every access is a full decode).
func (t *Thread) XlateStats() (accesses, hits, misses int64) {
	return t.xl.accesses, t.xl.hits, t.xl.misses
}

// flushXlateCounters emits the translation counter deltas accumulated
// since the last flush. Called at barriers — a deterministic point in
// every thread's event order — so the merged counter stream is
// byte-identical at any -parallel setting. Free when
// untraced or when no fine-grained access happened since the last
// barrier.
func (t *Thread) flushXlateCounters() {
	if t.xl.accesses == t.xl.emitted[0] || !t.rt.Eng.Tracing() {
		return
	}
	if d := t.xl.accesses - t.xl.emitted[0]; d > 0 {
		t.P.TraceCounter("upc", "xlate_access", d)
	}
	if d := t.xl.hits - t.xl.emitted[1]; d > 0 {
		t.P.TraceCounter("upc", "xlate_hit", d)
	}
	if d := t.xl.misses - t.xl.emitted[2]; d > 0 {
		t.P.TraceCounter("upc", "xlate_miss", d)
	}
	t.xl.emitted = [3]int64{t.xl.accesses, t.xl.hits, t.xl.misses}
}

// xlateCache is a set-associative translation cache with per-set LRU
// replacement: fixed arrays, no allocation per lookup, and a hit/miss
// sequence that is a pure function of the access stream — the
// determinism the counter manifests gate on. Keys are
// (arrayID+1)<<32 | blockNum, so the zero key means an empty way.
type xlateCache struct {
	sets  int // power of two
	keys  []uint64
	stamp []uint64 // per-way LRU stamps
	tick  uint64
}

// newXlateCache rounds the requested capacity up to a whole number of
// power-of-two sets of xlateWays ways.
func newXlateCache(lines int) *xlateCache {
	sets := 1
	for sets*xlateWays < lines {
		sets <<= 1
	}
	return &xlateCache{
		sets:  sets,
		keys:  make([]uint64, sets*xlateWays),
		stamp: make([]uint64, sets*xlateWays),
	}
}

// Capacity reports the rounded entry count.
func (c *xlateCache) Capacity() int { return c.sets * xlateWays }

// lookup probes for key, refreshing its LRU stamp on a hit; on a miss it
// installs key over the set's least-recently-used way. Reports a hit.
func (c *xlateCache) lookup(key uint64) bool {
	set := int((key*0x9e3779b97f4a7c15)>>33) & (c.sets - 1)
	base := set * xlateWays
	c.tick++
	victim, oldest := base, ^uint64(0)
	for i := base; i < base+xlateWays; i++ {
		if c.keys[i] == key {
			c.stamp[i] = c.tick
			return true
		}
		if c.stamp[i] < oldest {
			oldest = c.stamp[i]
			victim = i
		}
	}
	c.keys[victim] = key
	c.stamp[victim] = c.tick
	return false
}
