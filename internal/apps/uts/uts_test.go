package uts

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/topo"
)

func TestTreeDeterministicShape(t *testing.T) {
	spec := Small(20000)
	n1, d1 := spec.CountSequential()
	n2, d2 := spec.CountSequential()
	if n1 != n2 || d1 != d2 {
		t.Fatalf("sequential counts differ: %d/%d vs %d/%d", n1, d1, n2, d2)
	}
	if n1 < 5000 || n1 > 80000 {
		t.Errorf("Small(20000) produced %d nodes; want the right order of magnitude", n1)
	}
	if d1 < 10 {
		t.Errorf("max depth %d implausibly shallow for a binomial tree", d1)
	}
}

func TestTreeSizeScalesWithRoot(t *testing.T) {
	// Subtree sizes are very heavy-tailed (the mean is carried by rare
	// huge subtrees), so realized sizes only loosely track the target;
	// assert monotone growth and the right order of magnitude at the top.
	small, _ := Small(50000).CountSequential()
	large, _ := Small(500000).CountSequential()
	if large <= small {
		t.Errorf("more root children must give more nodes: %d vs %d", large, small)
	}
	if large < 100000 || large > 2000000 {
		t.Errorf("Small(500000) realized %d nodes; want the right order of magnitude", large)
	}
}

func TestChildDependsOnIndexAndParent(t *testing.T) {
	spec := Small(1000)
	root := spec.Root()
	c0, c1 := Child(root, 0), Child(root, 1)
	if c0.State == c1.State {
		t.Error("sibling children must differ")
	}
	if c0.Depth != 1 || c1.Depth != 1 {
		t.Error("child depth wrong")
	}
	if Child(c0, 0).State == Child(c1, 0).State {
		t.Error("children of different parents must differ")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []TreeSpec{
		{RootChildren: 0, Q: 0.1, M: 8},
		{RootChildren: 10, Q: 0.2, M: 8}, // q*m = 1.6 supercritical
		{RootChildren: 10, Q: math.NaN(), M: 8},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should be invalid", i)
		}
	}
	if err := Paper4M().Validate(); err != nil {
		t.Errorf("Paper4M invalid: %v", err)
	}
}

func runSmall(t *testing.T, strat Strategy, conduit string, threads, perNode int) Result {
	t.Helper()
	r, err := Run(Config{
		Machine:     topo.Pyramid(),
		ConduitName: conduit,
		Threads:     threads,
		PerNode:     perNode,
		Strategy:    strat,
		Granularity: 8,
		Tree:        Small(30000),
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParallelCountMatchesSequentialAllStrategies(t *testing.T) {
	for _, s := range Strategies() {
		r := runSmall(t, s, "", 16, 4)
		// Run() already cross-checks the counts; sanity-check the metric.
		if r.MNodesPerSec <= 0 {
			t.Errorf("%v: throughput %g", s, r.MNodesPerSec)
		}
		if r.Counters.Get("nodes") != r.Nodes {
			t.Errorf("%v: counter nodes %d != result %d", s, r.Counters.Get("nodes"), r.Nodes)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	a := runSmall(t, LocalRapid, "", 8, 4)
	b := runSmall(t, LocalRapid, "", 8, 4)
	if a.Elapsed != b.Elapsed || a.Counters.String() != b.Counters.String() {
		t.Errorf("replays differ: %v/%v vs %v/%v", a.Elapsed, a.Counters, b.Elapsed, b.Counters)
	}
}

func TestLocalStrategyRaisesLocalStealShare(t *testing.T) {
	base := runSmall(t, BaselineRR, "gige", 16, 4)
	opt := runSmall(t, LocalRapid, "gige", 16, 4)
	t.Logf("local steal %%: baseline=%.1f optimized=%.1f", base.LocalStealPct(), opt.LocalStealPct())
	if opt.LocalStealPct() <= base.LocalStealPct() {
		t.Errorf("optimized local%% (%.1f) should exceed baseline (%.1f)",
			opt.LocalStealPct(), base.LocalStealPct())
	}
}

func TestEthernetSlowerThanInfiniBand(t *testing.T) {
	ib := runSmall(t, BaselineRR, "ibv-ddr", 16, 4)
	eth := runSmall(t, BaselineRR, "gige", 16, 4)
	if eth.MNodesPerSec >= ib.MNodesPerSec {
		t.Errorf("Ethernet (%.1f Mn/s) should be slower than InfiniBand (%.1f Mn/s)",
			eth.MNodesPerSec, ib.MNodesPerSec)
	}
}

func TestOptimizedHelpsOnEthernet(t *testing.T) {
	base := runSmall(t, BaselineRR, "gige", 16, 4)
	opt := runSmall(t, LocalRapid, "gige", 16, 4)
	t.Logf("gige: baseline=%.2f optimized=%.2f Mnodes/s", base.MNodesPerSec, opt.MNodesPerSec)
	if opt.MNodesPerSec <= base.MNodesPerSec {
		t.Errorf("optimized (%.2f) should beat baseline (%.2f) on Ethernet",
			opt.MNodesPerSec, base.MNodesPerSec)
	}
}

func TestSingleThreadDegenerate(t *testing.T) {
	r, err := Run(Config{
		Machine: topo.Pyramid(), Threads: 1, PerNode: 1,
		Strategy: BaselineRR, Tree: Small(5000), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.Get("steals") != 0 {
		t.Errorf("single thread cannot steal, saw %d", r.Counters.Get("steals"))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Machine: topo.Pyramid(), Threads: 0, PerNode: 1,
		Tree: Small(1000)}); err == nil {
		t.Error("zero threads must error")
	}
	if _, err := Run(Config{Machine: topo.Pyramid(), Threads: 2, PerNode: 2,
		Tree: TreeSpec{}}); err == nil {
		t.Error("invalid tree must error")
	}
	if _, err := Run(Config{Machine: topo.Pyramid(), Threads: 2, PerNode: 2,
		ConduitName: "tin-cans", Tree: Small(1000)}); err == nil {
		t.Error("unknown conduit must error")
	}
}

func TestAnyStrategyCountsProperty(t *testing.T) {
	// Property: any (strategy, thread shape, granularity) traverses the
	// exact tree (Run verifies internally).
	f := func(stratRaw, perNodeRaw, granRaw uint8) bool {
		strat := Strategy(int(stratRaw) % 3)
		perNode := int(perNodeRaw)%4 + 1
		gran := int(granRaw)%16 + 1
		_, err := Run(Config{
			Machine: topo.Pyramid(), Threads: perNode * 2, PerNode: perNode,
			Strategy: strat, Granularity: gran, Tree: Small(8000), Seed: 3,
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestPthreadsStyleStealStackStillCounts(t *testing.T) {
	// The UTS harness always runs the process+PSHM regime the paper used;
	// this guards the counters' internal consistency instead.
	r := runSmall(t, LocalSteal, "", 8, 4)
	if r.Counters.Get("stolen_nodes") < r.Counters.Get("steals") {
		t.Error("each steal moves at least one node")
	}
	if r.Counters.Get("probes") < r.Counters.Get("steals") {
		t.Error("every steal requires at least one probe")
	}
}
