package upc

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

func TestXlateCacheCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ lines, want int }{
		{1, 4}, {4, 4}, {5, 8}, {255, 256}, {256, 256}, {257, 512},
	} {
		if got := newXlateCache(tc.lines).Capacity(); got != tc.want {
			t.Errorf("newXlateCache(%d).Capacity() = %d, want %d", tc.lines, got, tc.want)
		}
	}
}

// TestXlateCacheLRU drives a single-set cache (capacity 4, every key
// collides) through fill, reuse and eviction: the least-recently-used
// way must be the one replaced.
func TestXlateCacheLRU(t *testing.T) {
	c := newXlateCache(1)
	for k := uint64(1); k <= 4; k++ {
		if c.lookup(k) {
			t.Fatalf("cold lookup(%d) hit", k)
		}
	}
	if !c.lookup(1) {
		t.Fatal("lookup(1) after fill missed")
	}
	if c.lookup(5) {
		t.Fatal("lookup(5) hit before install")
	}
	// 5 must have evicted the LRU way (key 2); 1, 3, 4 stay resident.
	for _, k := range []uint64{1, 3, 4, 5} {
		if !c.lookup(k) {
			t.Errorf("lookup(%d) missed after LRU eviction", k)
		}
	}
	if c.lookup(2) {
		t.Error("lookup(2) hit: LRU eviction replaced the wrong way")
	}
}

// xlateProbe runs a fixed fine-grained kernel (rotating strided ReadElem
// sweeps plus a read-modify-write pass, all castable) on machine m and
// reports the kernel-region time, summed counters, and data checksum.
func xlateProbe(t *testing.T, m *topo.Machine) (elapsed sim.Duration, acc, hits, misses, check int64) {
	t.Helper()
	cfg := Config{Machine: m, Threads: 8, ThreadsPerNode: 8, Backend: Pthreads, Seed: 1}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const elems, block, passes = 1 << 12, 16, 3
	times := make([]sim.Duration, cfg.Threads)
	sums := make([]int64, cfg.Threads)
	rt.Start(func(th *Thread) {
		s := Alloc[int64](th, elems, 8, block)
		loc := s.Local(th)
		for j := range loc {
			loc[j] = int64(s.GlobalIndex(th.ID, j))
		}
		th.Barrier()
		t0 := th.Now()
		span := elems / th.N
		sum := int64(0)
		for p := 0; p < passes; p++ {
			start := (th.ID*span + p*2*block) % elems
			for k := 0; k < span; k++ {
				sum += ReadElem(th, s, (start+k)%elems)
			}
		}
		for k := 0; k < span; k++ {
			i := s.GlobalIndex(th.ID, k)
			WriteElem(th, s, i, ReadElem(th, s, i)+1)
		}
		th.Barrier()
		times[th.ID] = th.Now() - t0
		sums[th.ID] = sum
	})
	if err := rt.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Threads; i++ {
		a, h, ms := rt.Thread(i).XlateStats()
		acc += a
		hits += h
		misses += ms
		check += sums[i]
	}
	return times[0], acc, hits, misses, check
}

// TestXlateRegimes checks the three translation regimes against each
// other on the same kernel: identical computed data (hardware assist is
// a cost model, not a semantic change), strictly ordered kernel times
// (software > cached > assist), and regime-consistent accounting.
func TestXlateRegimes(t *testing.T) {
	machine := func(name string) *topo.Machine {
		m, ok := topo.ByName(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		return m
	}
	swT, swA, swH, swM, swC := xlateProbe(t, machine("lehman"))
	caT, caA, caH, caM, caC := xlateProbe(t, machine("lehman+xcache"))
	hwT, hwA, hwH, hwM, hwC := xlateProbe(t, machine("lehman+xassist"))

	if swC != caC || swC != hwC {
		t.Fatalf("checksums diverge across regimes: sw=%d cache=%d assist=%d", swC, caC, hwC)
	}
	if swA != caA || swA != hwA {
		t.Fatalf("access counts diverge: sw=%d cache=%d assist=%d", swA, caA, hwA)
	}
	if !(swT > caT && caT > hwT) {
		t.Errorf("kernel times not ordered software > cached > assist: %v > %v > %v", swT, caT, hwT)
	}
	if swH != 0 || swM != swA {
		t.Errorf("software regime: hits=%d misses=%d accesses=%d (want 0 hits, all misses)", swH, swM, swA)
	}
	if caH == 0 || caH+caM != caA {
		t.Errorf("cached regime: hits=%d misses=%d accesses=%d (want hits > 0, hits+misses = accesses)", caH, caM, caA)
	}
	if caH < caA/2 {
		t.Errorf("cached regime hit rate %d/%d below 50%% on a mostly-sequential stream", caH, caA)
	}
	if hwH != 0 || hwM != 0 || hwA == 0 {
		t.Errorf("assist regime: hits=%d misses=%d accesses=%d (want counted accesses, no cache traffic)", hwH, hwM, hwA)
	}
}

// TestXlateCachePressure shrinks the translation cache below a
// block-strided working set: cycling over 64 distinct blocks, an
// 8-entry cache thrashes under LRU while the default-size cache hits on
// every pass after the first. (The strided stream touches each block
// once per pass, so hits can only come from cross-pass reuse — unlike a
// sequential sweep, where intra-block streaming hits mask capacity.)
func TestXlateCachePressure(t *testing.T) {
	probe := func(m *topo.Machine) (acc, hits int64, check int64) {
		cfg := Config{Machine: m, Threads: 1, ThreadsPerNode: 1, Seed: 1}
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const block, blocks, passes = 16, 64, 4
		rt.Start(func(th *Thread) {
			s := Alloc[int64](th, block*blocks, 8, block)
			loc := s.Local(th)
			for j := range loc {
				loc[j] = int64(j)
			}
			th.Barrier()
			for p := 0; p < passes; p++ {
				for b := 0; b < blocks; b++ {
					check += ReadElem(th, s, b*block)
				}
			}
			th.Barrier()
			acc, hits, _ = th.XlateStats()
		})
		if err := rt.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		return acc, hits, check
	}
	tiny := mustPreset(t, "lehman+xcache")
	tiny.XlateCacheLines = 8 // capacity 8 entries vs the 64-block stream
	accT, hitsT, checkT := probe(tiny)
	accD, hitsD, checkD := probe(mustPreset(t, "lehman+xcache"))
	if checkT != checkD {
		t.Fatalf("capacity must not change results: %d vs %d", checkT, checkD)
	}
	if accT != accD {
		t.Fatalf("capacity must not change access counts: %d vs %d", accT, accD)
	}
	if hitsD != accD-64 {
		t.Errorf("default cache hits %d of %d, want all but the 64 compulsory misses", hitsD, accD)
	}
	if hitsT > accT/4 {
		t.Errorf("tiny cache hit rate %d/%d too high under capacity pressure", hitsT, accT)
	}
}

func mustPreset(t *testing.T, name string) *topo.Machine {
	t.Helper()
	m, ok := topo.ByName(name)
	if !ok {
		t.Fatalf("preset %q missing", name)
	}
	return m
}

// TestXlateBulkCharge pins ChargeXlate's regime behavior: hardware
// assist retires bulk translations at cycle cost while the software
// regimes pay the full decode, and the accounting lands in the counters.
func TestXlateBulkCharge(t *testing.T) {
	run := func(m *topo.Machine) (sim.Duration, int64, int64) {
		var d sim.Duration
		var acc, misses int64
		_, err := Run(Config{Machine: m, Threads: 1, ThreadsPerNode: 1, Seed: 1},
			func(th *Thread) {
				t0 := th.Now()
				th.ChargeXlate(1000)
				d = th.Now() - t0
				acc, _, misses = th.XlateStats()
			})
		if err != nil {
			t.Fatal(err)
		}
		return d, acc, misses
	}
	swD, swA, swM := run(mustPreset(t, "lehman"))
	hwD, hwA, hwM := run(mustPreset(t, "lehman+xassist"))
	if swA != 1000 || swM != 1000 {
		t.Errorf("software bulk accounting: accesses=%d misses=%d, want 1000/1000", swA, swM)
	}
	if hwA != 1000 || hwM != 0 {
		t.Errorf("assist bulk accounting: accesses=%d misses=%d, want 1000/0", hwA, hwM)
	}
	if hwD >= swD {
		t.Errorf("assist bulk charge %v not below software %v", hwD, swD)
	}
}
