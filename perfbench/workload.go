package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps/ft"
	"repro/internal/apps/uts"
	"repro/internal/topo"
	"repro/internal/trace"
)

// outcome is one simulation's virtual-time output in canonical form: the
// oracle digests canon, and nodes lets it check that every UTS strategy
// counted the same tree.
type outcome struct {
	canon string
	nodes int64 // UTS tree size; 0 for FT
}

// simSpec is one simulation of a workload, the unit the benchmark counts
// as an operation. run installs tr (which may be nil) in the engine it
// builds, following the sweep.Run job contract.
type simSpec struct {
	key string // golden-file key; equal configurations share it across workloads
	run func(tr trace.Tracer) (outcome, error)
}

// workload is one named set of simulations.
type workload struct {
	name    string
	variant string // the seed-dependent input, keying the golden event count
	procs   int    // GOMAXPROCS, and the sweep width when observed
	// observed runs the sims through sweep.Run with a digest session, a
	// metrics.Collection and a causality.Recorder attached, and writes the
	// manifest and analysis, as `upc-experiments -metrics -analyze` does.
	observed bool
	sims     []simSpec
}

// scale sizes the workloads. Tests run a reduced one.
type scale struct {
	utsNodes   int   // uts.Small approximation
	utsThreads []int // uts-steal thread counts; sweep-observed uses the first
	ftClass    string
	ftSplit    int // split-phase UPC processes
	ftOverlap  int // overlap UPC processes
}

var fullScale = scale{utsNodes: 400000, utsThreads: []int{64, 128}, ftClass: "B", ftSplit: 64, ftOverlap: 32}

// treeSeeds are the UTS tree realizations a --seed selects from. Seed 7
// is uts.Small's own. The others are the seeds up to 400 whose
// uts.Small(400000) trees realize within 1.1% of its 235,113 nodes and
// whose uts-steal streams are within 3.2% of its 12.9M events, so every
// --seed does near-equal work and medians compare across seeds.
var treeSeeds = []uint32{7, 21, 25, 45}

// treeSeed maps a benchmark seed onto treeSeeds; seed 1 selects seed 7.
func treeSeed(seed int64) uint32 {
	n := int64(len(treeSeeds))
	return treeSeeds[((seed-1)%n+n)%n]
}

var workloadNames = []string{"uts-steal", "ft-alltoall", "sweep-observed"}

// buildWorkload constructs the named workload's simulations for seed.
// The seed selects the UTS tree and is every engine's seed; FT class
// inputs are fixed, so its seed reaches only the engine, whose random
// source feeds fault injection alone.
func buildWorkload(name string, sc scale, seed int64) (workload, error) {
	conduits := []string{"ibv-ddr", "gige"}
	strats := []uts.Strategy{uts.BaselineRR, uts.LocalRapid}
	tree := fmt.Sprintf("tree=%d", treeSeed(seed))
	switch name {
	case "uts-steal":
		w := workload{name: name, variant: tree, procs: 1}
		for _, c := range conduits {
			for _, th := range sc.utsThreads {
				for _, st := range strats {
					w.sims = append(w.sims, utsSim(sc, seed, c, th, st))
				}
			}
		}
		return w, nil
	case "ft-alltoall":
		return workload{name: name, variant: "class=" + sc.ftClass, procs: 1, sims: []simSpec{
			ftSim(sc, seed, ft.SplitPhase, sc.ftSplit),
			ftSim(sc, seed, ft.Overlap, sc.ftOverlap),
		}}, nil
	case "sweep-observed":
		w := workload{name: name, variant: tree, procs: 2, observed: true}
		for _, c := range conduits {
			for _, st := range strats {
				w.sims = append(w.sims, utsSim(sc, seed, c, sc.utsThreads[0], st))
			}
		}
		return w, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// utsSim is one Figure 3.3 point on 16 Pyramid nodes, configured as
// internal/experiments does.
func utsSim(sc scale, seed int64, conduit string, threads int, strat uts.Strategy) simSpec {
	tree := uts.Small(sc.utsNodes)
	tree.Seed = treeSeed(seed)
	gran := 8
	if conduit == "gige" {
		gran = 20
	}
	return simSpec{
		key: fmt.Sprintf("uts n=%d tree=%d %s t=%d %s", sc.utsNodes, tree.Seed, conduit, threads, strat),
		run: func(tr trace.Tracer) (outcome, error) {
			r, err := uts.Run(uts.Config{
				Machine: topo.Pyramid(), ConduitName: conduit, Threads: threads,
				PerNode: threads / 16, Strategy: strat, Granularity: gran, Batch: 64,
				Tree: tree, Seed: seed, Tracer: tr,
			})
			if err != nil {
				return outcome{}, err
			}
			return outcome{
				canon: fmt.Sprintf("nodes=%d depth=%d elapsed=%d %v", r.Nodes, r.MaxDepth, r.Elapsed, r.Counters),
				nodes: r.Nodes,
			}, nil
		},
	}
}

// ftSim is one NAS FT run with UPC processes on the 8-node Lehman cluster.
func ftSim(sc scale, seed int64, impl ft.Impl, threads int) simSpec {
	perNode := 1
	if threads > 8 {
		perNode = threads / 8
	}
	return simSpec{
		key: fmt.Sprintf("ft class=%s %s t=%d", sc.ftClass, impl, threads),
		run: func(tr trace.Tracer) (outcome, error) {
			cls, ok := ft.ClassByName(sc.ftClass)
			if !ok {
				return outcome{}, fmt.Errorf("ft: unknown class %q", sc.ftClass)
			}
			r, err := ft.Run(ft.Config{
				Machine: topo.Lehman(), Class: cls, Variant: ft.UPCProcesses, Impl: impl,
				Threads: threads, PerNode: perNode, Seed: seed, Tracer: tr,
			})
			if err != nil {
				return outcome{}, err
			}
			phases := make([]string, 0, len(r.Phases))
			for k, v := range r.Phases {
				phases = append(phases, fmt.Sprintf("%s=%d", k, v))
			}
			sort.Strings(phases)
			return outcome{canon: fmt.Sprintf("elapsed=%d per_iter=%d comm=%d %s",
				r.Elapsed, r.PerIter, r.Comm, strings.Join(phases, " "))}, nil
		},
	}
}
