package group

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/upc"
)

func cfg(threads, perNode int) upc.Config {
	return upc.Config{
		Machine:        topo.Lehman(),
		Threads:        threads,
		ThreadsPerNode: perNode,
		Backend:        upc.Processes,
		PSHM:           true,
		Seed:           1,
	}
}

// onOneNode reports whether every member shares the caller's node.
func onOneNode(g *Group) bool {
	for _, m := range g.Members {
		if g.T.Distance(m) == topo.LevelRemote {
			return false
		}
	}
	return true
}

func TestNodeGroupMembership(t *testing.T) {
	_, err := upc.Run(cfg(8, 4), func(th *upc.Thread) {
		g := NodeGroup(th)
		if len(g.Members) != 4 {
			t.Errorf("thread %d: group size %d, want 4", th.ID, len(g.Members))
		}
		if want := (th.ID / 4) * 4; g.Members[0] != want {
			t.Errorf("thread %d: lowest member %d, want %d", th.ID, g.Members[0], want)
		}
		if g.Members[g.Rank] != th.ID {
			t.Errorf("thread %d: rank %d maps to member %d", th.ID, g.Rank, g.Members[g.Rank])
		}
		if !onOneNode(g) {
			t.Errorf("thread %d: node group must be on one node", th.ID)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupBarrierIsCheaperThanGlobal(t *testing.T) {
	var groupCost, globalCost sim.Duration
	_, err := upc.Run(cfg(8, 4), func(th *upc.Thread) {
		g := NodeGroup(th)
		th.Barrier()
		start := th.Now()
		g.Barrier()
		if th.ID == 0 {
			groupCost = th.Now() - start
		}
		th.Barrier()
		start = th.Now()
		th.Barrier()
		if th.ID == 0 {
			globalCost = th.Now() - start
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if groupCost >= globalCost {
		t.Errorf("intra-node group barrier (%v) must be cheaper than global (%v)",
			groupCost, globalCost)
	}
}

func TestGroupBarrierOnlySyncsMembers(t *testing.T) {
	// Node 0's group barriers must complete even while node 1's threads
	// are busy for a long time.
	var node0Done sim.Time
	_, err := upc.Run(cfg(8, 4), func(th *upc.Thread) {
		g := NodeGroup(th)
		// The point of the test: node 0's group barriers must not wait on node 1.
		if th.ID < 4 {
			for i := 0; i < 3; i++ {
				g.Barrier()
			}
			if th.ID == 0 {
				node0Done = th.Now()
			}
		} else {
			th.P.Advance(10 * sim.Second)
			g.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if node0Done >= sim.Second {
		t.Errorf("node 0 group finished at %v; it must not wait for node 1", node0Done)
	}
}

func TestOverlappingGroups(t *testing.T) {
	// Each thread joins its node group AND a "column" group of same-rank
	// threads across nodes; both must work concurrently.
	_, err := upc.Run(cfg(8, 4), func(th *upc.Thread) {
		node := NodeGroup(th)
		col, err := New(th, []int{th.ID % 4, th.ID%4 + 4})
		if err != nil {
			t.Fatal(err)
		}
		node.Barrier()
		col.Barrier()
		node.Barrier()
		if len(node.Members) != 4 || len(col.Members) != 2 {
			t.Errorf("node group %v, column group %v", node.Members, col.Members)
		}
		if onOneNode(col) {
			t.Error("column group spans nodes")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	_, err := upc.Run(cfg(4, 4), func(th *upc.Thread) {
		if _, err := New(th, nil); err == nil {
			t.Error("empty membership must error")
		}
		if _, err := New(th, []int{0, 0, th.ID}); err == nil {
			t.Error("duplicate member must error")
		}
		if _, err := New(th, []int{th.ID, 99}); err == nil {
			t.Error("out-of-range member must error")
		}
		other := (th.ID + 1) % th.N
		if _, err := New(th, []int{other}); err == nil {
			t.Error("group excluding self must error")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCastTable builds the privatized pointer table of Figure 3.1 — one
// direct slice per node-group member, through upc.Shared.Cast — and
// checks it is complete exactly when the node has shared memory.
func TestCastTable(t *testing.T) {
	for _, pshm := range []bool{true, false} {
		c := cfg(8, 4)
		c.PSHM = pshm
		_, err := upc.Run(c, func(th *upc.Thread) {
			s := upc.Alloc[float64](th, 64, 8, 8)
			for i := range s.Local(th) {
				s.Local(th)[i] = float64(th.ID)
			}
			th.Barrier()
			g := NodeGroup(th)
			complete := true
			for r, m := range g.Members {
				seg := s.Cast(th, m)
				if seg == nil {
					complete = false
					continue
				}
				if got := seg[0]; got != float64(m) {
					t.Errorf("pshm=%v: table seg(%d)[0] = %v, want %d", pshm, r, got, m)
				}
			}
			if complete != pshm {
				t.Errorf("pshm=%v: table complete = %v", pshm, complete)
			}
			if s.Cast(th, g.Members[g.Rank]) == nil {
				t.Error("own segment must always be castable")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSocketGroups(t *testing.T) {
	// Groups can follow any hardware predicate: build per-socket groups
	// and check membership by distance.
	_, err := upc.Run(cfg(8, 4), func(th *upc.Thread) {
		var members []int
		for p := 0; p < th.N; p++ {
			if p == th.ID || th.Distance(p) <= topo.LevelSocket {
				members = append(members, p)
			}
		}
		g, err := New(th, members)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range g.Members {
			if m != th.ID && th.Distance(m) > topo.LevelSocket {
				t.Errorf("thread %d grouped with off-socket %d", th.ID, m)
			}
		}
		g.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupBarrierManyGenerations(t *testing.T) {
	_, err := upc.Run(cfg(8, 4), func(th *upc.Thread) {
		g := NodeGroup(th)
		for i := 0; i < 20; i++ {
			th.P.Advance(sim.Duration(1 + th.ID%3))
			g.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpanningGroupCostsMoreThanNodeGroup(t *testing.T) {
	var nodeCost, spanCost sim.Duration
	_, err := upc.Run(cfg(8, 4), func(th *upc.Thread) {
		ng := NodeGroup(th)
		column, err := New(th, []int{th.ID % 4, th.ID%4 + 4}) // spans 2 nodes
		if err != nil {
			t.Fatal(err)
		}
		th.Barrier()
		start := th.Now()
		ng.Barrier()
		if th.ID == 0 {
			nodeCost = th.Now() - start
		}
		th.Barrier()
		start = th.Now()
		column.Barrier()
		if th.ID == 0 {
			spanCost = th.Now() - start
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if spanCost <= nodeCost {
		t.Errorf("node-spanning group barrier (%v) must exceed intra-node (%v)", spanCost, nodeCost)
	}
}
