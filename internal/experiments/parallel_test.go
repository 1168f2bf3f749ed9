package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps/uts"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// renderAll captures what a STREAM or UTS step of upc-experiments -only
// would print at the given sweep width, together with the TraceDigest
// its -trace session would hash. It restores the previous width and
// default tracer on return.
func renderAll(t *testing.T, workers int, render func(w *strings.Builder) error) (string, uint64, int64) {
	t.Helper()
	prevWorkers := sweep.Workers()
	prevTracer := trace.Default()
	dg := trace.NewDigest()
	trace.SetDefault(dg)
	sweep.SetWorkers(workers)
	defer func() {
		sweep.SetWorkers(prevWorkers)
		trace.SetDefault(prevTracer)
	}()
	var b strings.Builder
	if err := render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String(), dg.Sum64(), dg.Events()
}

// TestParallelSweepDeterminism is the -parallel determinism gate as a
// unit test: the STREAM steps (Tables 3.1 and 4.1) and a scaled-down
// UTS sweep must print byte-identical output and hash byte-identical
// trace streams at -parallel=1 and -parallel=8.
func TestParallelSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison")
	}
	streamRender := func(w *strings.Builder) error {
		return Run(w, []string{"Table 3.1", "Table 4.1"}, true)
	}
	// The UTS path at unit-test scale: the Figure 3.3 sweep shape
	// (conduit x strategy x size grid through sweep.Run) on tiny trees.
	utsRender := func(w *strings.Builder) error {
		strats := uts.Strategies()
		type point struct {
			conduit string
			procs   int
		}
		pts := []point{{"ibv-ddr", 16}, {"ibv-ddr", 32}, {"gige", 16}, {"gige", 32}}
		results := make([]uts.Result, len(pts)*len(strats))
		err := sweep.Run(len(results), func(i int, tr trace.Tracer) error {
			pt := pts[i/len(strats)]
			cfg := utsConfig(pt.conduit, pt.procs, strats[i%len(strats)], true)
			cfg.Tree = uts.Small(20000)
			cfg.Tracer = tr
			r, err := uts.Run(cfg)
			results[i] = r
			return err
		})
		if err != nil {
			return err
		}
		for i, r := range results {
			fmt.Fprintf(w, "%d %d %.6f\n", i, r.Nodes, r.MNodesPerSec)
		}
		return nil
	}
	for _, tc := range []struct {
		name   string
		render func(w *strings.Builder) error
	}{
		{"stream", streamRender},
		{"uts", utsRender},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out1, dig1, n1 := renderAll(t, 1, tc.render)
			out8, dig8, n8 := renderAll(t, 8, tc.render)
			if out1 != out8 {
				t.Errorf("stdout differs between -parallel=1 and -parallel=8:\n--- 1 ---\n%s\n--- 8 ---\n%s", out1, out8)
			}
			if n1 != n8 {
				t.Errorf("trace event count differs: %d vs %d", n1, n8)
			}
			if dig1 != dig8 {
				t.Errorf("TraceDigest differs: %016x vs %016x (%d events)", dig1, dig8, n1)
			}
		})
	}
}
