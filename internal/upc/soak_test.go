package upc

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/topo"
)

// TestRandomTrafficSoak drives a randomized mixture of blocking and
// asynchronous puts and gets across backends and checks every byte against
// a shadow model. Each (writer, owner) pair has a private slot in the
// owner's partition, so concurrent one-sided writes never race.
func TestRandomTrafficSoak(t *testing.T) {
	f := func(seed int64, backendRaw, pshmRaw uint8) bool {
		backend := Processes
		if backendRaw%2 == 1 {
			backend = Pthreads
		}
		const threads, perNode, slot = 6, 3, 64
		cfg := Config{
			Machine:        topo.Lehman(),
			Threads:        threads,
			ThreadsPerNode: perNode,
			Backend:        backend,
			PSHM:           pshmRaw%2 == 0,
			Seed:           seed,
		}
		ok := true
		_, err := Run(cfg, func(th *Thread) {
			// Partition layout: one slot per writer.
			s := Alloc[int64](th, threads*threads*slot, 8, threads*slot)
			th.Barrier()
			rng := th.Runtime().Eng.Rand()
			var pending []*Handle
			shadow := make([][]int64, threads) // what this thread wrote to each owner
			for dst := range shadow {
				shadow[dst] = make([]int64, slot)
			}
			for op := 0; op < 40; op++ {
				dst := rng.Intn(threads)
				off := rng.Intn(slot - 4)
				n := 1 + rng.Intn(4)
				vals := make([]int64, n)
				for i := range vals {
					v := int64(th.ID)<<40 | int64(op)<<16 | int64(i)
					vals[i] = v
					shadow[dst][off+i] = v
				}
				base := th.ID*slot + off
				if rng.Intn(2) == 0 {
					PutT(th, s, dst, base, vals)
				} else {
					pending = append(pending, PutAsyncT(th, s, dst, base, vals))
				}
				if rng.Intn(4) == 0 {
					// Interleave a get of our own slot at some owner.
					buf := make([]int64, slot)
					GetT(th, s, buf, dst, th.ID*slot)
				}
			}
			th.WaitAll(pending)
			th.Barrier()
			// Verify everything this thread wrote.
			for dst := 0; dst < threads; dst++ {
				buf := make([]int64, slot)
				GetT(th, s, buf, dst, th.ID*slot)
				for i, want := range shadow[dst] {
					if buf[i] != want {
						ok = false
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestManyArraysAndLocksSoak interleaves collective allocations of
// different shapes with lock-protected counters.
func TestManyArraysAndLocksSoak(t *testing.T) {
	total := 0
	_, err := Run(testCfg(6, 3, Processes, true), func(th *Thread) {
		arrays := make([]*Shared[int], 5)
		locks := make([]*Lock, 3)
		for i := range arrays {
			arrays[i] = Alloc[int](th, 30*(i+1), 8, i+1)
		}
		for i := range locks {
			locks[i] = AllocLock(th, i%th.N)
		}
		for round := 0; round < 4; round++ {
			l := locks[round%len(locks)]
			l.Lock(th)
			total++
			l.Unlock(th)
			a := arrays[round%len(arrays)]
			WriteElem(th, a, th.ID, th.ID*round)
		}
		th.Barrier()
		for i, a := range arrays {
			if a.N() != 30*(i+1) {
				t.Errorf("array %d shape drifted", i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 24 {
		t.Errorf("lock-protected increments = %d, want 24", total)
	}
}

// TestGetAsyncReadsAtCompletion pins down the documented semantics: an
// asynchronous get observes the source at delivery time, not initiation.
func TestGetAsyncReadsAtCompletion(t *testing.T) {
	_, err := Run(testCfg(2, 1, Processes, true), func(th *Thread) {
		s := Alloc[int32](th, 2, 4, 1)
		if th.ID == 1 {
			s.Local(th)[0] = 7
		}
		th.Barrier()
		if th.ID == 0 {
			buf := make([]int32, 1)
			h := GetAsyncT(th, s, buf, 1, 0)
			// The owner flips the value while the get is in flight; the
			// one-sided read is unordered with respect to it, so either
			// value is legal — but it must be one of them.
			th.WaitSync(h)
			if buf[0] != 7 && buf[0] != 9 {
				t.Errorf("async get observed %d", buf[0])
			}
		} else {
			th.P.Advance(1) // flip mid-flight
			// A deliberate in-flight race; the test accepts either outcome.
			s.Local(th)[0] = 9
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBackendsComputeIdenticalData runs the same deterministic program on
// all three runtime regimes and requires identical final data (timing
// differs; values must not).
func TestBackendsComputeIdenticalData(t *testing.T) {
	run := func(b Backend, pshm bool) []float64 {
		out := make([]float64, 32)
		_, err := Run(testCfg(4, 2, b, pshm), func(th *Thread) {
			s := Alloc[float64](th, 32, 8, 8)
			for i := range s.Local(th) {
				s.Local(th)[i] = float64(th.ID*100 + i)
			}
			th.Barrier()
			peer := (th.ID + 1) % th.N
			buf := make([]float64, 8)
			GetT(th, s, buf, peer, 0)
			for i := range buf {
				buf[i] *= 2
			}
			PutT(th, s, peer, 0, buf)
			th.Barrier()
			copy(out[th.ID*8:], s.Local(th))
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := run(Processes, false)
	b := run(Processes, true)
	c := run(Pthreads, false)
	if fmt.Sprint(a) != fmt.Sprint(b) || fmt.Sprint(b) != fmt.Sprint(c) {
		t.Error("backends must compute identical data")
	}
}
