package subthread

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/upc"
)

func cfg1(perNode int) upc.Config {
	return upc.Config{
		Machine:        topo.Lehman(),
		Threads:        perNode,
		ThreadsPerNode: perNode,
		Backend:        upc.Processes,
		PSHM:           true,
		Seed:           1,
	}
}

// runMaster runs body on a single-thread UPC program and returns elapsed.
func runMaster(t *testing.T, body func(th *upc.Thread)) sim.Duration {
	t.Helper()
	st, err := upc.Run(cfg1(1), body)
	if err != nil {
		t.Fatal(err)
	}
	return st.Elapsed
}

func TestParallelForSpeedup(t *testing.T) {
	elapsed := map[int]sim.Duration{}
	for _, n := range []int{1, 4} {
		n := n
		elapsed[n] = runMaster(t, func(th *upc.Thread) {
			tm, err := NewTeam(th, Config{Kind: OMP, N: n, Bound: true, Safety: Funneled})
			if err != nil {
				t.Fatal(err)
			}
			tm.ParallelFor(64, func(s *Sub, i int) {
				s.Compute(0.001)
			})
		})
	}
	speedup := float64(elapsed[1]) / float64(elapsed[4])
	if speedup < 3.5 || speedup > 4.05 {
		t.Errorf("4-way ParallelFor speedup = %.2f, want ~4", speedup)
	}
}

func TestAllIndicesRunExactlyOnce(t *testing.T) {
	counts := make([]int, 100)
	runMaster(t, func(th *upc.Thread) {
		for _, k := range []Kind{OMP, Cilk, Pool} {
			tm, err := NewTeam(th, Config{Kind: k, N: 3, Bound: true})
			if err != nil {
				t.Fatal(err)
			}
			tm.ParallelFor(100, func(s *Sub, i int) {
				counts[i]++
				s.Compute(1e-6)
			})
		}
	})
	for i, c := range counts {
		if c != 3 { // once per runtime kind
			t.Errorf("index %d ran %d times, want 3", i, c)
		}
	}
}

func TestMasterParticipates(t *testing.T) {
	sawMaster := false
	ranks := map[int]bool{}
	runMaster(t, func(th *upc.Thread) {
		tm, _ := NewTeam(th, Config{Kind: Pool, N: 4, Bound: true})
		tm.ParallelFor(32, func(s *Sub, i int) {
			ranks[s.Rank] = true
			if s.IsMaster() {
				sawMaster = true
			}
			s.Compute(1e-5)
		})
	})
	if !sawMaster {
		t.Error("master must participate in parallel regions")
	}
	if len(ranks) != 4 {
		t.Errorf("only %d of 4 workers participated: %v", len(ranks), ranks)
	}
}

func TestRuntimeOverheadOrdering(t *testing.T) {
	// For fine-grained tasks, OpenMP < Pool < Cilk overall time.
	times := map[Kind]sim.Duration{}
	for _, k := range []Kind{OMP, Cilk, Pool} {
		k := k
		times[k] = runMaster(t, func(th *upc.Thread) {
			tm, _ := NewTeam(th, Config{Kind: k, N: 4, Bound: true})
			for rep := 0; rep < 20; rep++ {
				tm.ParallelFor(64, func(s *Sub, i int) {
					s.Compute(2e-6)
				})
			}
		})
	}
	if !(times[OMP] < times[Pool] && times[Pool] < times[Cilk]) {
		t.Errorf("overhead ordering wrong: omp=%v pool=%v cilk=%v",
			times[OMP], times[Pool], times[Cilk])
	}
}

func TestCilkComputePenalty(t *testing.T) {
	// One coarse task: Cilk's compute factor (~1.1) must show.
	var omp, cilk sim.Duration
	omp = runMaster(t, func(th *upc.Thread) {
		tm, _ := NewTeam(th, Config{Kind: OMP, N: 1, Bound: true})
		tm.ParallelFor(1, func(s *Sub, i int) { s.Compute(0.1) })
	})
	cilk = runMaster(t, func(th *upc.Thread) {
		tm, _ := NewTeam(th, Config{Kind: Cilk, N: 1, Bound: true})
		tm.ParallelFor(1, func(s *Sub, i int) { s.Compute(0.1) })
	})
	ratio := float64(cilk) / float64(omp)
	if ratio < 1.05 || ratio > 1.15 {
		t.Errorf("cilk/omp compute ratio = %.3f, want ~1.1", ratio)
	}
}

func TestUnboundMemoryStreamsSlower(t *testing.T) {
	// 8 sub-threads streaming memory homed on the master's socket: bound
	// or not, socket 0's controller is the bottleneck; but 2 masters × 4
	// bound sub-threads each stream their own socket and go ~2x faster.
	// Here we check the single-master case against the two-master case.
	oneMaster := runMaster(t, func(th *upc.Thread) {
		tm, _ := NewTeam(th, Config{Kind: OMP, N: 8, Bound: false})
		tm.ParallelFor(8, func(s *Sub, i int) {
			s.MemStream(128 << 20)
		})
	})
	st, err := upc.Run(cfg1(2), func(th *upc.Thread) {
		tm, _ := NewTeam(th, Config{Kind: OMP, N: 4, Bound: true})
		tm.ParallelFor(4, func(s *Sub, i int) {
			s.MemStream(128 << 20)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(oneMaster) / float64(st.Elapsed)
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("1x8 / 2x4 stream-time ratio = %.2f, want ~2 (Table 4.1 effect)", ratio)
	}
}

func TestSpawnSyncNested(t *testing.T) {
	total := 0
	runMaster(t, func(th *upc.Thread) {
		tm, _ := NewTeam(th, Config{Kind: Cilk, N: 4, Bound: true})
		for i := 0; i < 4; i++ {
			tm.Spawn(func(s *Sub) {
				s.Compute(1e-5)
				total++
				// Nested spawn from a running task.
				tm.Spawn(func(s2 *Sub) {
					s2.Compute(1e-5)
					total++
				})
			})
		}
		tm.Sync()
	})
	if total != 8 {
		t.Errorf("ran %d tasks, want 8 (nested spawns must complete before Sync returns)", total)
	}
}

func TestSafetyEnforcement(t *testing.T) {
	mustPanic := func(name string, safety Safety, fromMaster bool) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		upc.Run(cfg1(1), func(th *upc.Thread) {
			tm, _ := NewTeam(th, Config{Kind: OMP, N: 2, Bound: true, Safety: safety})
			tm.ParallelFor(2, func(s *Sub, i int) {
				if s.IsMaster() == fromMaster {
					s.UPC() // must panic per safety level
				}
			})
		})
	}
	mustPanic("single/master", Single, true)
	mustPanic("funneled/worker", Funneled, false)

	// Funneled from the master, and Multiple from anyone, must work.
	runMaster(t, func(th *upc.Thread) {
		sh := upc.Alloc[float64](th, 16, 8, 16)
		tm, _ := NewTeam(th, Config{Kind: OMP, N: 2, Bound: true, Safety: Multiple})
		tm.ParallelFor(2, func(s *Sub, i int) {
			v := s.UPC()
			// Owner 0 is the only UPC thread; the sub-thread puts land before the read.
			upc.PutT(v, sh, 0, i, []float64{float64(i)})
		})
		if sh.Local(th)[0] != 0 || sh.Local(th)[1] != 1 {
			t.Errorf("sub-thread puts did not land: %v", sh.Local(th)[:2])
		}
	})
}

func TestNestedParallelForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nested ParallelFor")
		}
	}()
	upc.Run(cfg1(1), func(th *upc.Thread) {
		tm, _ := NewTeam(th, Config{Kind: OMP, N: 2, Bound: true})
		tm.ParallelFor(2, func(s *Sub, i int) {
			tm.ParallelFor(2, func(*Sub, int) {})
		})
	})
}

func TestTeamValidation(t *testing.T) {
	runMaster(t, func(th *upc.Thread) {
		if _, err := NewTeam(th, Config{Kind: OMP, N: 0}); err == nil {
			t.Error("zero-size team must error")
		}
		if _, err := NewTeam(th, Config{Kind: OMP, N: 1000, Bound: true}); err == nil {
			t.Error("oversubscribed team must error")
		}
	})
}

func TestKindAndSafetyStrings(t *testing.T) {
	if fmt.Sprint(OMP, Cilk, Pool) != "openmp cilk pool" {
		t.Errorf("kind names: %v %v %v", OMP, Cilk, Pool)
	}
	if fmt.Sprint(Single, Funneled, Multiple) != "single funneled multiple" {
		t.Error("safety names wrong")
	}
}
