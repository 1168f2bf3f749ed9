package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/ft"
	"repro/internal/apps/netbench"
	"repro/internal/apps/ra"
	"repro/internal/apps/stream"
	"repro/internal/apps/uts"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// only returns the steps of the index named in names.
func only(names ...string) []step {
	var sel []step
	for _, s := range steps {
		if slices.Contains(names, s.name) {
			sel = append(sel, s)
		}
	}
	return sel
}

// TestPlanRunsEachPointOnce runs the planning pass alone, simulating
// nothing: the whole index asks for 284 distinct points at quick scale
// and 423 at paper scale. Eight steps share no point with another and
// plan their own alone; the UTS and FT steps ask for 107 (134), of
// which Table 3.2 and Summary ask for none beyond those of Figures
// 3.3–4.6, and exactly Table 3.2's and Figure 4.4's points want the
// critical path. A render pass over arbitrary outcomes of every kind
// must look up only planned points, and a lookup of any other key must
// panic.
func TestPlanRunsEachPointOnce(t *testing.T) {
	for _, tc := range []struct {
		quick                       bool
		points, shared, causal, net int
	}{{true, 284, 107, 19, 56}, {false, 423, 134, 20, 112}} {
		t.Run(fmt.Sprintf("quick=%v", tc.quick), func(t *testing.T) {
			all := newPlan(steps, tc.quick)
			if len(all.points) != tc.points {
				t.Errorf("plan holds %d points, want %d", len(all.points), tc.points)
			}
			first := map[string]int{}
			for _, pt := range all.points {
				first[pt.step]++
			}
			for _, own := range []struct {
				name string
				want int
			}{
				{"Table 3.1", 4}, {"Figure 3.1b", 3}, {"Figure 3.4(a)", 25}, {"Figure 3.4(b)", 25},
				{"Figure 4.2(a)", tc.net}, {"Figure 4.2(b)", tc.net}, {"Table 4.1", 5},
				{"Extension: RandomAccess", 3},
			} {
				alone := len(newPlan(only(own.name), tc.quick).points)
				if first[own.name] != own.want || alone != own.want {
					t.Errorf("%s plans %d points in the index and %d alone, want %d",
						own.name, first[own.name], alone, own.want)
				}
			}
			figs := newPlan(only("Figure 3.3", "Figure 4.4", "Figure 4.5", "Figure 4.6"), tc.quick)
			if len(figs.points) != tc.shared || first["Table 3.2"] != 0 || first["Summary"] != 0 {
				t.Errorf("Figures 3.3–4.6 plan %d points, want %d; Table 3.2 and Summary add %d and %d, want none",
					len(figs.points), tc.shared, first["Table 3.2"], first["Summary"])
			}
			causal := newPlan(only("Table 3.2", "Figure 4.4"), tc.quick)
			if len(causal.points) != tc.causal {
				t.Errorf("Table 3.2 and Figure 4.4 plan %d points, want %d", len(causal.points), tc.causal)
			}
			for _, pt := range all.points {
				if want := causal.index[pt.key] != nil; pt.causal != want {
					t.Errorf("%v (first looked up by %s): causal %v, want %v", pt.key, pt.step, pt.causal, want)
				}
			}

			// Outcomes unlike the planning pass's zeros must not change
			// which points a render looks up.
			all.ran = true
			for i, pt := range all.points {
				d := sim.Duration(i + 1)
				pt.uts = uts.Result{Elapsed: d, MNodesPerSec: float64(i + 1), StealsByThread: []int64{int64(i)}}
				pt.ft = ft.Result{Elapsed: d, Comm: d, Phases: map[string]sim.Duration{"evolve": d}}
				pt.stream = stream.Result{GBps: float64(i + 1), Elapsed: d}
				pt.xlate = xlateResult{elapsed: d, accesses: int64(i + 1), hits: int64(i), check: 7}
				pt.exchange = ft.ExchangeResult{Call: d, Wait: d, Total: d}
				pt.net = netbench.Result{RTT: d, BandwidthMBps: float64(i + 1)}
				pt.ra = ra.Result{Elapsed: d, GUPS: float64(i + 1), Messages: int64(i)}
			}
			for _, s := range steps {
				all.step = s.name
				if err := s.render(io.Discard, all); err != nil {
					t.Errorf("%s: %v", s.name, err)
				}
			}
		})
	}

	p := newPlan(only("Summary"), true)
	p.ran = true
	p.step = "Summary"
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "uts {gige 64 baseline}") {
			t.Errorf("lookup of an unplanned key recovered %v, want a panic naming it", r)
		}
	}()
	p.lookup(utsPoint{"gige", 64, uts.BaselineRR}, false)
}

// TestPlanErrorNamesStepAndPoint: a failing point's error names the
// first step that looked it up, then the point; of two failing points
// run side by side, the first planned one's. A translation point with
// an unknown machine preset fails the same way.
func TestPlanErrorNamesStepAndPoint(t *testing.T) {
	prev := sweep.Workers()
	sweep.SetWorkers(2)
	defer sweep.SetWorkers(prev)
	p := newPlan(nil, true)
	p.step = "Table 3.2"
	p.lookup(utsPoint{"nope", 128, uts.LocalRapid}, true)
	p.step = "Summary"
	p.lookup(utsPoint{"nope", 128, uts.LocalRapid}, false)
	p.lookup(utsPoint{"nope", 64, uts.BaselineRR}, false)
	err := p.run()
	want := "Table 3.2: uts {nope 128 local-stealing + rapid-diffusion}: "
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %v, want prefix %q", err, want)
	}

	p = newPlan(nil, true)
	p.step = "Figure 3.1b"
	p.lookup(xlatePoint{"pyramid+nope"}, false)
	err = p.run()
	want = `Figure 3.1b: xlate {pyramid+nope}: unknown preset "pyramid+nope"`
	if err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}

// TestPlanPanicIsPointError: a point whose simulation panics — here
// FT, which has no crash recovery, under a schedule that takes node 1
// down at the start — comes back from the plan as that point's one-line
// error instead of killing the sweep's worker. Of two such points run
// side by side at width 2, the first planned one's error wins.
func TestPlanPanicIsPointError(t *testing.T) {
	prev := sweep.Workers()
	sweep.SetWorkers(2)
	defer sweep.SetWorkers(prev)
	prevFaults := fault.Default()
	fault.SetDefault(&fault.Schedule{Actions: []fault.Action{{Op: fault.OpCrash, At: 0, Node: 1}}})
	defer fault.SetDefault(prevFaults)
	p := newPlan(nil, true)
	p.step = "Figure 4.5"
	p.lookup(ftPoint{"lehman", ft.UPCProcesses, ft.SplitPhase, 16, 8, 0}, false)
	p.lookup(ftPoint{"lehman", ft.UPCProcesses, ft.SplitPhase, 32, 8, 0}, false)
	err := p.run()
	want := `Figure 4.5: ft {lehman UPC (processes) split-phase 16 8 0}: ` +
		`sim: process "upc7" panicked: fault: put 7->8 failed after 0 attempts: peer node down`
	if err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}
