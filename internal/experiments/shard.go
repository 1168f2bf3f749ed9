// Sharded experiment variants: when the -shards flag selects the
// node-sharded parallel engine (sim.SetShardWorkers > 0), Table31 and
// Table32 delegate here. Each point is one internally-parallel
// simulation, so the points run as a plain sequential loop — no
// sweep.Run fan-out on top — and the rendered rows, the TraceDigest and
// the metrics manifest are byte-identical at any -shards value by the
// lane-invariant construction of sim.ShardGroup.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/apps/stream"
	"repro/internal/apps/uts"
	"repro/internal/causality"
	"repro/internal/report"
)

// Table31Sharded renders the sharded companion of Table 3.1: the
// ring-twisted triad re-localization kernel across fabric-node counts,
// every node one engine lane.
func Table31Sharded(w io.Writer) error {
	shapes := []int{2, 4, 8}
	rows := make([][]string, 0, len(shapes))
	for _, nodes := range shapes {
		r, err := stream.RunTwistedSharded(stream.ShardConfig{
			Nodes:          nodes,
			ThreadsPerNode: 4,
			ElemsPerThrd:   1 << 16,
			Seed:           seed,
		})
		if err != nil {
			return err
		}
		rows = append(rows, []string{r.Name, fmt.Sprintf("%.1f", r.GBps),
			fmt.Sprintf("%.3f ms", r.Elapsed.Seconds()*1e3)})
	}
	report.Table(w, "Table 3.1 (sharded): Ring-Twisted STREAM Triad Across Nodes (GB/s)",
		[]string{"configuration", "model", "kernel"}, rows)
	return nil
}

// Table32Sharded renders Table 3.2 on the sharded engine: the same
// profiling comparison (baseline ring vs local stealing with rapid
// diffusion), with the steal statistics read from the runs' results
// exactly like the legacy table.
func Table32Sharded(w io.Writer, quick bool) error {
	type row struct {
		net   string
		procs int
	}
	shapes := []row{
		{"ibv-ddr", 32}, {"ibv-ddr", 64}, {"ibv-ddr", 128},
		{"gige", 32}, {"gige", 64}, {"gige", 128},
	}
	type traced struct {
		r   uts.Result
		rec *causality.Recorder
	}
	runs := make([]traced, 2*len(shapes))
	for i := range runs {
		strat := uts.BaselineRR
		if i%2 == 1 {
			strat = uts.LocalRapid
		}
		rec := causality.NewRecorder()
		cfg := utsConfig(shapes[i/2].net, shapes[i/2].procs, strat, quick)
		cfg.Tracer = rec
		r, err := uts.RunSharded(cfg)
		if err != nil {
			return err
		}
		runs[i] = traced{r, rec}
	}
	rows := make([][]string, 0, len(shapes))
	for i, sh := range shapes {
		base, opt := runs[2*i], runs[2*i+1]
		improve := (base.r.Elapsed.Seconds()/opt.r.Elapsed.Seconds() - 1) * 100
		rows = append(rows, []string{
			fmt.Sprintf("%s %d/%d", sh.net, sh.procs, sh.procs/16),
			fmt.Sprintf("%.1f%%", improve),
			fmt.Sprintf("%.1f", base.r.LocalStealPct()),
			fmt.Sprintf("%.1f", opt.r.LocalStealPct()),
			stealSpread(opt.r),
			fmt.Sprintf("%.1f/%.1f", cpWaitPct(base.rec), cpWaitPct(opt.rec)),
		})
	}
	report.Table(w, "Table 3.2 (sharded): Profiling Results of UTS (16 nodes, sharded engine)",
		[]string{"config", "improvement", "local% base", "local% opt",
			"steals/thr p10/med/p90", "critical-path wait% b/o"}, rows)
	return nil
}
