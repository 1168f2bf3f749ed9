package trace

import (
	"math"
	"math/rand"
	"testing"
)

// refWord is the textbook FNV-1a fold of v's eight little-endian bytes,
// the definition word's zero-tail shortcut must reproduce.
func refWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func TestWordMatchesByteLoop(t *testing.T) {
	words := []uint64{
		0, 1, 0xff, 0x100, 1 << 56, 0xff << 48, 1 << 63,
		math.MaxUint64, uint64(math.MaxInt64),
	}
	for _, n := range []int64{-1, -2, -255, -256, -1 << 40, math.MinInt64} {
		words = append(words, uint64(n))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		// Random words of every byte length, so each zero-tail length
		// (0-8 trailing zero bytes) is covered many times over.
		words = append(words, rng.Uint64()>>(8*uint(i%9)))
	}
	for _, h := range []uint64{fnvOffset, 0, 1, math.MaxUint64, rng.Uint64()} {
		for _, v := range words {
			if got, want := word(h, v), refWord(h, v); got != want {
				t.Fatalf("word(%#x, %#x) = %#x, want %#x", h, v, got, want)
			}
		}
	}
}

// pinnedScript mixes every kind, empty and non-empty strings, engine
// context and negative payloads.
func pinnedScript() []Event {
	return []Event{
		{Kind: KRunBegin, Proc: EngineProc, Cat: "sim", Name: "run", Arg: 42},
		{Time: 0, Kind: KProcSpawn, Proc: 0, Cat: "sim", Name: "upc0"},
		{Time: 0, Kind: KProcSpawn, Proc: 1, Cat: "sim", Name: "upc1"},
		{Time: 3, Kind: KClock, Proc: EngineProc, Cat: "sim", Name: "clock", Arg: 3},
		{Time: 7, Kind: KSpanBegin, Proc: 0, Cat: "upc", Name: "barrier"},
		{Time: 7, Kind: KProcPark, Proc: 0, Cat: "sim", Name: "upc0", Aux: "barrier"},
		{Time: 9, Kind: KInstant, Proc: 1, Cat: CatComm, Name: "put", Aux: "network", Arg: 4096, Arg2: PackEndpoints(1, 0, 1, 0)},
		{Time: 9, Kind: KInstant, Proc: EngineProc, Cat: CatLink, Name: "nic-tx1", Arg: 1, Arg2: 3200000000},
		{Time: 12, Kind: KInstant, Proc: 1, Cat: "uts", Name: "steal", Arg: -1, Arg2: -7},
		{Time: 12, Kind: KCounter, Proc: 1, Cat: "uts", Name: "nodes", Arg: 1 << 40},
		{Time: 15, Kind: KCounter, Proc: 0, Cat: "", Name: "", Arg: -1},
		{Time: 20, Kind: KProcUnpark, Proc: 0, Cat: "sim", Name: "upc0"},
		{Time: 20, Kind: KSpanEnd, Proc: 0, Cat: "upc", Name: "barrier"},
		{Time: 21, Kind: KInstant, Proc: 0, Cat: "", Name: "", Aux: "", Arg: math.MinInt64, Arg2: math.MaxInt64},
		{Time: 1 << 50, Kind: KInstant, Proc: 1, Cat: CatLink, Name: "nic-tx1", Arg: 0, Arg2: 3200000000},
		{Time: 1<<50 + 1, Kind: KProcExit, Proc: 1, Cat: "sim", Name: "upc1"},
		{Time: 1<<50 + 1, Kind: KProcExit, Proc: 0, Cat: "sim", Name: "upc0"},
		{Kind: KRunBegin, Proc: EngineProc, Cat: "sim", Name: "run", Arg: -42},
		{Time: -5, Kind: Kind(255), Proc: math.MinInt32, Cat: "é", Name: "\x00", Aux: "\xff"},
		{Time: 1, Kind: KSpanBegin, Proc: math.MaxInt32, Cat: "ft", Name: "fft2d"},
	}
}

// TestDigestPinned fixes the digest's definition: any change to how an
// event is folded in — field order, widths, the FNV parameters — moves
// every TraceDigest, and must show up here first.
func TestDigestPinned(t *testing.T) {
	d := NewDigest()
	for _, e := range pinnedScript() {
		d.Emit(e)
	}
	const want = "77aa4877bafece15"
	if got := d.String(); got != want || d.Events() != 20 {
		t.Fatalf("pinned script digest %s (%d events), want %s (20)", got, d.Events(), want)
	}
}
