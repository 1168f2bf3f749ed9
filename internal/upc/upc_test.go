package upc

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topo"
)

func testCfg(threads, perNode int, backend Backend, pshm bool) Config {
	return Config{
		Machine:        topo.Lehman(),
		Threads:        threads,
		ThreadsPerNode: perNode,
		Backend:        backend,
		PSHM:           pshm,
		Seed:           1,
	}
}

func TestSPMDIdentity(t *testing.T) {
	seen := make([]bool, 8)
	st, err := Run(testCfg(8, 4, Processes, true), func(th *Thread) {
		if th.N != 8 {
			t.Errorf("THREADS = %d, want 8", th.N)
		}
		if seen[th.ID] {
			t.Errorf("duplicate MYTHREAD %d", th.ID)
		}
		seen[th.ID] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Threads != 8 {
		t.Errorf("stats threads = %d", st.Threads)
	}
	for i, s := range seen {
		if !s {
			t.Errorf("thread %d never ran", i)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	var maxArrive, minRelease sim.Time
	minRelease = 1 << 60
	_, err := Run(testCfg(4, 2, Processes, true), func(th *Thread) {
		th.P.Advance(sim.Duration(th.ID) * sim.Millisecond)
		if th.Now() > maxArrive {
			maxArrive = th.Now()
		}
		th.Barrier()
		if th.Now() < minRelease {
			minRelease = th.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if minRelease < maxArrive {
		t.Errorf("barrier released at %v before last arrival %v", minRelease, maxArrive)
	}
	if minRelease == maxArrive {
		t.Error("barrier must charge a nonzero dissemination cost")
	}
}

func TestLayoutMathProperties(t *testing.T) {
	// Owner/LocalIndex <-> GlobalIndex is a bijection and partitions sum
	// to N, for arbitrary (n, block, threads).
	f := func(nRaw, blockRaw, thRaw uint8) bool {
		threads := int(thRaw)%7 + 1
		n := int(nRaw)%200 + 1
		block := int(blockRaw)%10 + 1
		s := &Shared[int]{n: n, elemBytes: 8, block: block, segs: make([][]int, threads)}
		for th := range s.segs {
			s.segs[th] = make([]int, s.PartLen(th))
		}
		sum := 0
		for th := 0; th < threads; th++ {
			sum += s.PartLen(th)
		}
		if sum != n {
			return false
		}
		for i := 0; i < n; i++ {
			o, l := s.Owner(i), s.LocalIndex(i)
			if o < 0 || o >= threads || l < 0 || l >= s.PartLen(o) {
				return false
			}
			if s.GlobalIndex(o, l) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAllocCollectiveAndData(t *testing.T) {
	_, err := Run(testCfg(4, 2, Processes, true), func(th *Thread) {
		s := Alloc[float64](th, 64, 8, 4)
		if s.N() != 64 || s.Block() != 4 {
			t.Errorf("alloc shape wrong: n=%d block=%d", s.N(), s.Block())
		}
		loc := s.Local(th)
		if len(loc) != s.PartLen(th.ID) {
			t.Errorf("thread %d local len %d, want %d", th.ID, len(loc), s.PartLen(th.ID))
		}
		for i := range loc {
			loc[i] = float64(th.ID*1000 + i)
		}
		th.Barrier()
		// Every thread reads element 0 of thread (ID+1)%N via Get.
		peer := (th.ID + 1) % th.N
		buf := make([]float64, 2)
		GetT(th, s, buf, peer, 0)
		if buf[0] != float64(peer*1000) || buf[1] != float64(peer*1000+1) {
			t.Errorf("thread %d got %v from peer %d", th.ID, buf, peer)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutMovesDataAndCharges(t *testing.T) {
	var localCost, remoteCost sim.Duration
	_, err := Run(testCfg(4, 2, Processes, true), func(th *Thread) {
		s := Alloc[int32](th, 4096, 4, 1024)
		th.Barrier()
		if th.ID == 0 {
			src := make([]int32, 1024)
			for i := range src {
				src[i] = int32(i)
			}
			start := th.Now()
			PutT(th, s, 1, 0, src) // same node (PSHM path)
			localCost = th.Now() - start
			start = th.Now()
			PutT(th, s, 2, 0, src) // remote node
			remoteCost = th.Now() - start
		}
		th.Barrier()
		if th.ID == 1 || th.ID == 2 {
			loc := s.Local(th)
			for i := 0; i < 1024; i++ {
				if loc[i] != int32(i) {
					t.Fatalf("thread %d: element %d = %d, want %d", th.ID, i, loc[i], i)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if remoteCost <= localCost {
		t.Errorf("remote put (%v) must cost more than same-node PSHM put (%v)", remoteCost, localCost)
	}
}

func TestPutAsyncOverlapsAndApexAtSync(t *testing.T) {
	_, err := Run(testCfg(2, 1, Processes, true), func(th *Thread) {
		s := Alloc[byte](th, 2<<20, 1, 1<<20)
		th.Barrier()
		if th.ID == 0 {
			src := make([]byte, 1<<20)
			for i := range src {
				src[i] = byte(i)
			}
			h := PutAsyncT(th, s, 1, 0, src)
			if h.op.Remote.Fired() {
				t.Error("1MB put should not complete instantly")
			}
			// Mutating the source after initiation must not corrupt the
			// transfer (snapshot semantics).
			for i := range src {
				src[i] = 0xFF
			}
			th.Compute(0.0001)
			th.WaitSync(h)
			if h.op != nil {
				t.Error("WaitSync must consume the handle's operation")
			}
		}
		th.Barrier()
		if th.ID == 1 {
			loc := s.Local(th)
			for i := 0; i < 1<<20; i += 4097 {
				if loc[i] != byte(i) {
					t.Fatalf("async put corrupted: loc[%d] = %d, want %d", i, loc[i], byte(i))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCastAvailability(t *testing.T) {
	cases := []struct {
		backend  Backend
		pshm     bool
		sameNode bool // expect castable to same-node peer
	}{
		{Processes, false, false},
		{Processes, true, true},
		{Pthreads, false, true},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%v/pshm=%v", c.backend, c.pshm)
		_, err := Run(testCfg(4, 2, c.backend, c.pshm), func(th *Thread) {
			s := Alloc[float64](th, 16, 8, 4)
			th.Barrier()
			if got := s.Cast(th, th.ID) == nil; got {
				t.Errorf("%s: self must always be castable", name)
			}
			var sameNodePeer, remotePeer int = -1, -1
			for p := 0; p < th.N; p++ {
				if p == th.ID {
					continue
				}
				if th.Distance(p) != topo.LevelRemote {
					sameNodePeer = p
				} else {
					remotePeer = p
				}
			}
			if got := s.Cast(th, sameNodePeer) != nil; got != c.sameNode {
				t.Errorf("%s: same-node castable = %v, want %v", name, got, c.sameNode)
			}
			if s.Cast(th, remotePeer) != nil {
				t.Errorf("%s: remote segment must never be castable", name)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadWriteElem(t *testing.T) {
	_, err := Run(testCfg(4, 2, Processes, true), func(th *Thread) {
		s := Alloc[int64](th, 40, 8, 1) // cyclic layout
		th.Barrier()
		// Thread 0 writes every element; everyone reads its own affinity
		// elements plus one remote.
		if th.ID == 0 {
			for i := 0; i < 40; i++ {
				WriteElem(th, s, i, int64(i*i))
			}
		}
		th.Barrier()
		for i := th.ID; i < 40; i += th.N {
			if got := ReadElem(th, s, i); got != int64(i*i) {
				t.Errorf("elem %d = %d, want %d", i, got, i*i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLockMutualExclusionAcrossThreads(t *testing.T) {
	counter := 0
	_, err := Run(testCfg(8, 4, Processes, true), func(th *Thread) {
		l := AllocLock(th, 0)
		th.Barrier()
		for i := 0; i < 5; i++ {
			l.Lock(th)
			c := counter
			th.Compute(0.00001)
			counter = c + 1
			l.Unlock(th)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if counter != 40 {
		t.Errorf("counter = %d, want 40 (lost updates => broken lock)", counter)
	}
}

func TestLockRemoteCostsMore(t *testing.T) {
	var homeCost, remoteCost sim.Duration
	_, err := Run(testCfg(4, 2, Processes, true), func(th *Thread) {
		l := AllocLock(th, 0)
		th.Barrier()
		if th.ID == 0 {
			start := th.Now()
			l.Lock(th)
			l.Unlock(th)
			homeCost = th.Now() - start
		}
		th.Barrier()
		if th.ID == 2 { // other node
			start := th.Now()
			l.Lock(th)
			l.Unlock(th)
			remoteCost = th.Now() - start
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if remoteCost <= homeCost {
		t.Errorf("remote lock RT (%v) must exceed home lock (%v)", remoteCost, homeCost)
	}
}

func TestTryLock(t *testing.T) {
	_, err := Run(testCfg(2, 2, Processes, true), func(th *Thread) {
		l := AllocLock(th, 0)
		th.Barrier()
		if th.ID == 0 {
			if !l.TryLock(th) {
				t.Error("TryLock on free lock must succeed")
			}
			th.P.Advance(10 * sim.Millisecond)
			l.Unlock(th)
		} else {
			th.P.Advance(sim.Millisecond)
			if l.TryLock(th) {
				t.Error("TryLock on held lock must fail")
			}
			th.P.Advance(20 * sim.Millisecond)
			if !l.TryLock(th) {
				t.Error("TryLock after release must succeed")
			}
			l.Unlock(th)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectives(t *testing.T) {
	_, err := Run(testCfg(6, 3, Processes, true), func(th *Thread) {
		if got := AllReduceSum(th, float64(th.ID)); got != 15 {
			t.Errorf("AllReduceSum = %g, want 15", got)
		}
		if got := AllReduce(th, th.ID*th.ID, 8, func(a, b int) int { return max(a, b) }); got != 25 {
			t.Errorf("AllReduce(max) = %d, want 25", got)
		}
		if got := AllReduce(th, int64(1), 8, addInt64); got != 6 {
			t.Errorf("AllReduce(int64 sum) = %d, want 6", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPthreadsShareConnectionCost(t *testing.T) {
	// 4 threads/node all flooding remote peers: pthreads backend should be
	// slower than processes for many small messages (injection gap
	// serialization on the shared connection).
	run := func(b Backend) sim.Duration {
		st, err := Run(testCfg(8, 4, b, true), func(th *Thread) {
			s := Alloc[byte](th, 8*64, 1, 64)
			th.Barrier()
			if th.ID < 4 {
				peer := th.ID + 4 // other node
				buf := make([]byte, 64)
				for k := 0; k < 50; k++ {
					PutT(th, s, peer, 0, buf)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Elapsed
	}
	proc, pth := run(Processes), run(Pthreads)
	if pth <= proc {
		t.Errorf("pthreads small-message flood (%v) should exceed processes (%v)", pth, proc)
	}
}

func TestSameNodeThreadsQuery(t *testing.T) {
	_, err := Run(testCfg(8, 4, Processes, true), func(th *Thread) {
		group := th.SameNodeThreads()
		if len(group) != 4 {
			t.Errorf("thread %d: group size %d, want 4", th.ID, len(group))
		}
		for _, r := range group {
			if r/4 != th.ID/4 {
				t.Errorf("thread %d grouped with off-node %d", th.ID, r)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}, func(*Thread) {}); err == nil {
		t.Error("nil machine must error")
	}
	if _, err := Run(Config{Machine: topo.Lehman()}, func(*Thread) {}); err == nil {
		t.Error("zero threads must error")
	}
	cfg := testCfg(4, 2, Processes, true)
	cfg.Machine = &topo.Machine{Name: "bad", DefaultConduit: "warp-drive",
		Nodes: 1, SocketsPerNode: 1, CoresPerSocket: 4, ThreadsPerCore: 1,
		MemBWSocket: 1, NUMAFactor: 1, SMTThroughput: 1}
	cfg.Threads, cfg.ThreadsPerNode = 2, 2
	if _, err := Run(cfg, func(*Thread) {}); err == nil {
		t.Error("unknown default conduit must error")
	}
	cfg = testCfg(4, 2, Processes, true)
	cfg.Conduit = "warp-drive"
	if _, err := Run(cfg, func(*Thread) {}); err == nil || !strings.Contains(err.Error(), `"warp-drive"`) {
		t.Errorf("unknown conduit preset: err = %v, want one naming it", err)
	}
}

func TestDeterministicElapsed(t *testing.T) {
	run := func() sim.Duration {
		st, err := Run(testCfg(8, 4, Processes, true), func(th *Thread) {
			s := Alloc[float64](th, 1024, 8, 128)
			th.Barrier()
			src := make([]float64, 128)
			PutT(th, s, (th.ID+3)%th.N, 0, src)
			th.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Elapsed
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical runs differ: %v vs %v", a, b)
	}
}

func TestAllocMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape-mismatch panic")
		}
	}()
	Run(testCfg(2, 2, Processes, true), func(th *Thread) {
		if th.ID == 0 {
			Alloc[float64](th, 64, 8, 4)
		} else {
			Alloc[float64](th, 32, 8, 4)
		}
	})
}

func TestPutRangeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected range panic")
		}
	}()
	Run(testCfg(2, 2, Processes, true), func(th *Thread) {
		s := Alloc[byte](th, 16, 1, 8)
		th.Barrier()
		PutT(th, s, 1, 4, make([]byte, 8)) // [4:12) outside 8-elem partition
	})
}
