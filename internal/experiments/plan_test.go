package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/ft"
	"repro/internal/apps/uts"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// only returns the steps of the index named in names.
func only(quick bool, names ...string) []step {
	var sel []step
	for _, s := range steps(quick) {
		if slices.Contains(names, s.name) {
			sel = append(sel, s)
		}
	}
	return sel
}

// TestPlanRunsEachPointOnce runs the planning pass alone, simulating
// nothing: the whole index asks for 107 distinct UTS and FT points at
// quick scale and 134 at paper scale, Table 3.2 and Summary ask for
// none beyond those of Figures 3.3–4.6, and exactly Table 3.2's and
// Figure 4.4's points want the critical path. A render pass over
// arbitrary outcomes must look up only planned points, and a lookup of
// any other key must panic.
func TestPlanRunsEachPointOnce(t *testing.T) {
	for _, tc := range []struct {
		quick          bool
		points, causal int
	}{{true, 107, 19}, {false, 134, 20}} {
		t.Run(fmt.Sprintf("quick=%v", tc.quick), func(t *testing.T) {
			all := newPlan(steps(tc.quick), tc.quick)
			if len(all.points) != tc.points {
				t.Errorf("plan holds %d points, want %d", len(all.points), tc.points)
			}
			figs := newPlan(only(tc.quick, "Figure 3.3", "Figure 4.4", "Figure 4.5", "Figure 4.6"), tc.quick)
			if len(figs.points) != len(all.points) {
				t.Errorf("Figures 3.3–4.6 plan %d points, the whole index %d", len(figs.points), len(all.points))
			}
			causal := newPlan(only(tc.quick, "Table 3.2", "Figure 4.4"), tc.quick)
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
			}
			for _, s := range steps(tc.quick) {
				if s.render != nil {
					all.step = s.name
					s.render(io.Discard, all)
				}
			}
		})
	}

	p := newPlan(only(true, "Summary"), true)
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
// run side by side, the first planned one's.
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
}
