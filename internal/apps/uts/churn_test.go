package uts

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
)

// churnSchedule is the repeated crash-with-revive scenario shipped as
// examples/faults/churn.json: node 1 bounces twice, node 2 once, all
// mid-traversal.
func churnSchedule() *fault.Schedule {
	return &fault.Schedule{Name: "churn", Actions: []fault.Action{
		{Op: fault.OpCrash, At: 0.0002, Until: 0.0004, Node: 1, Src: -1, Dst: -1},
		{Op: fault.OpCrash, At: 0.00045, Until: 0.00065, Node: 2, Src: -1, Dst: -1},
		{Op: fault.OpCrash, At: 0.0007, Until: 0.00085, Node: 1, Src: -1, Dst: -1},
	}}
}

func churnConfig() Config {
	return Config{
		Machine:     topo.Pyramid(),
		Threads:     16,
		PerNode:     4,
		Strategy:    LocalRapid,
		Granularity: 8,
		Tree:        Small(60000),
		Seed:        1,
		Faults:      churnSchedule(),
	}
}

// churnRun executes the legacy traversal under churn. Run itself
// verifies the exact tree count against the sequential walk.
func churnRun(t *testing.T) Result {
	t.Helper()
	r, err := Run(churnConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestChurnRejoinCountsExactTree is the reincarnation acceptance
// scenario on the legacy engine: nodes crash and revive mid-run, the
// revived workers rejoin the traversal, and the count stays exact.
// Beyond exactness (checked inside Run), the manifest counters must
// prove the rejoin was real: every crash window produced failovers,
// every revival produced rejoins, and at least one revived worker went
// on to steal work again.
func TestChurnRejoinCountsExactTree(t *testing.T) {
	r := churnRun(t)
	if r.Elapsed <= sim.Duration(850*sim.Microsecond) {
		t.Fatalf("run ended at %v, before the last revival — grow the tree", r.Elapsed)
	}
	// Node 1 bounces twice, node 2 once; 4 workers per node. A worker
	// blocked in a remote steal across its own crash window legitimately
	// misses a failover (the RPC reply arrives in the next life), so the
	// floor is one full node's worth with headroom up to 12.
	if got := r.Counters.Get("failovers"); got < 4 || got > 12 {
		t.Errorf("failovers = %d, want within [4, 12] for three crash windows", got)
	}
	if got, died := r.Counters.Get("rejoins"), r.Counters.Get("failovers"); got != died {
		t.Errorf("rejoins = %d, failovers = %d: every churn death must rejoin", got, died)
	}
	if r.Counters.Get("orphans_taken") == 0 {
		t.Error("survivors adopted no orphaned work despite mid-run crashes")
	}
	if r.Counters.Get("steals_rejoined") == 0 {
		t.Error("no revived worker stole after rejoining — churn windows leave no work, retune the schedule")
	}
}

// TestChurnRunDeterministic replays the churn scenario: identical
// (seed, schedule) must reproduce the timeline and every counter.
func TestChurnRunDeterministic(t *testing.T) {
	a := churnRun(t)
	b := churnRun(t)
	if a.Elapsed != b.Elapsed || a.Counters.String() != b.Counters.String() {
		t.Errorf("churn replays differ:\n%v %v\n%v %v", a.Elapsed, a.Counters, b.Elapsed, b.Counters)
	}
}

// TestChurnSoak sweeps seeds under the churn schedule: the exact count
// must hold at every seed (Run checks it), and each seed must replay
// identically.
func TestChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in -short")
	}
	for seed := int64(1); seed <= 5; seed++ {
		cfg := churnConfig()
		cfg.Seed = seed
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg2 := churnConfig()
		cfg2.Seed = seed
		b, err := Run(cfg2)
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if a.Elapsed != b.Elapsed || a.Counters.String() != b.Counters.String() {
			t.Errorf("seed %d: churn replays differ", seed)
		}
	}
}
