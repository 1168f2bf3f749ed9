// Package experiments regenerates every table and figure of the thesis's
// evaluation (the per-experiment index of DESIGN.md) and renders the same
// rows or series the paper reports. The STREAM, translation, all-to-all
// and network steps each run a sweep of their own; the UTS and FT steps
// render from one plan of distinct simulations (plan.go), so a point
// several of them show runs once. The quick flag trades sweep breadth
// for runtime (smaller trees, no SMT points); the shapes are preserved
// either way.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"repro/internal/apps/ft"
	"repro/internal/apps/netbench"
	"repro/internal/apps/stream"
	"repro/internal/apps/uts"
	"repro/internal/causality"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/trace"
)

const seed = 1

// Table31 regenerates Table 3.1 (twisted STREAM triad).
func Table31(w io.Writer) error {
	rs, err := stream.Table31(seed)
	if err != nil {
		return err
	}
	paper := []string{"3.2", "7.2", "23.2", "23.4"}
	rows := make([][]string, len(rs))
	for i, r := range rs {
		rows[i] = []string{r.Name, fmt.Sprintf("%.1f", r.GBps), paper[i]}
	}
	report.Table(w, "Table 3.1: Performance of the Twisted STREAM Triad (GB/s)",
		[]string{"variant", "model", "paper"}, rows)
	return nil
}

// Table41 regenerates Table 4.1 (hybrid STREAM triad).
func Table41(w io.Writer) error {
	rs, err := stream.Table41(seed)
	if err != nil {
		return err
	}
	paper := map[string]string{
		"UPC 8":                    "24.5",
		"OpenMP 8":                 "23.7",
		"UPC*OpenMP 1*8 (unbound)": "13.9",
		"UPC*OpenMP 2*4":           "24.7",
		"UPC*OpenMP 4*2":           "24.7",
	}
	rows := make([][]string, len(rs))
	for i, r := range rs {
		rows[i] = []string{r.Name, fmt.Sprintf("%.1f", r.GBps), paper[r.Name]}
	}
	report.Table(w, "Table 4.1: Performance of the STREAM Triad (GB/s)",
		[]string{"configuration", "model", "paper"}, rows)
	return nil
}

// utsTree picks the tree size: the paper's 4.35M-node realization, or a
// ~400K-node tree for quick runs.
func utsTree(quick bool) uts.TreeSpec {
	if quick {
		return uts.Small(400000)
	}
	return uts.Paper4M()
}

// utsConfig builds a Figure 3.3 configuration point.
func utsConfig(conduit string, procs int, strat uts.Strategy, quick bool) uts.Config {
	gran := 8
	if conduit == "gige" {
		gran = 20
	}
	return uts.Config{
		Machine:     topo.Pyramid(),
		ConduitName: conduit,
		Threads:     procs,
		PerNode:     procs / 16, // the paper's fixed 16 nodes
		Strategy:    strat,
		Granularity: gran,
		Batch:       64,
		Tree:        utsTree(quick),
		Seed:        seed,
	}
}

// cpWaitPct reports the percentage of a run's critical path the
// causality analysis attributes to waiting — everything but compute:
// PSHM and network communication, fault recovery, scheduler idling.
// Each run feeds its own recorder, so the figure is deterministic at
// any sweep width.
func cpWaitPct(rec *causality.Recorder) float64 {
	exp := rec.Export()
	if exp.TotalMakespanNS == 0 {
		return 0
	}
	var wait int64
	for _, s := range exp.Totals {
		if s.Category != causality.CatCompute {
			wait += s.NS
		}
	}
	return 100 * float64(wait) / float64(exp.TotalMakespanNS)
}

// stealSpread renders the per-thread steal-count spread of one run —
// p10/median/p90 across every thread, those that never stole included —
// so a strategy that concentrates stealing on a few threads is visible
// next to the aggregate local-steal percentage.
func stealSpread(r uts.Result) string {
	p10, med, p90 := perf.Percentiles(perf.Int64s(r.StealsByThread))
	return fmt.Sprintf("%.0f/%.0f/%.0f", p10, med, p90)
}

// figure33 renders Figure 3.3 (UTS parallel scalability on 16 nodes,
// InfiniBand and Ethernet panels) from the conduit x strategy x size
// grid of plan points.
func figure33(w io.Writer, p *plan) {
	for _, conduit := range []string{"ibv-ddr", "gige"} {
		var series []report.Series
		for _, st := range uts.Strategies() {
			s := report.Series{Label: st.String()}
			for _, procs := range []int{16, 32, 64, 128} {
				s.X = append(s.X, float64(procs))
				s.Y = append(s.Y, p.lookup(utsPoint{conduit, procs, st}, false).uts.MNodesPerSec)
			}
			series = append(series, s)
		}
		report.Figure(w, fmt.Sprintf("Figure 3.3 (%s): UTS scalability, Mnodes/s vs processors", conduit),
			"procs", series)
		fmt.Fprintln(w)
	}
}

// table32 renders Table 3.2 (UTS profiling: overall improvement and
// local-steal percentages) from the baseline and optimized Figure 3.3
// points of each shape. The steal statistics come from the runs' own
// results, the critical-path column from their causality recorders.
func table32(w io.Writer, p *plan) {
	shapes := []struct {
		net   string
		procs int
	}{
		{"ibv-ddr", 32}, {"ibv-ddr", 64}, {"ibv-ddr", 128},
		{"gige", 32}, {"gige", 64}, {"gige", 128},
	}
	paper := [][]string{
		{"3.4%", "36.2", "59.0"}, {"7.1%", "58.1", "82.9"}, {"11.2%", "72.2", "90.9"},
		{"49.4%", "18.2", "57.8"}, {"66.5%", "40.5", "81.1"}, {"99.5%", "58.1", "89.7"},
	}
	rows := make([][]string, 0, len(shapes))
	for i, sh := range shapes {
		base := p.lookup(utsPoint{sh.net, sh.procs, uts.BaselineRR}, true)
		opt := p.lookup(utsPoint{sh.net, sh.procs, uts.LocalRapid}, true)
		improve := (base.uts.Elapsed.Seconds()/opt.uts.Elapsed.Seconds() - 1) * 100
		rows = append(rows, []string{
			fmt.Sprintf("%s %d/%d", sh.net, sh.procs, sh.procs/16),
			fmt.Sprintf("%.1f%%", improve),
			fmt.Sprintf("%.1f", base.uts.LocalStealPct()),
			fmt.Sprintf("%.1f", opt.uts.LocalStealPct()),
			stealSpread(opt.uts),
			fmt.Sprintf("%.1f/%.1f", base.cpWait, opt.cpWait),
			paper[i][0], paper[i][1], paper[i][2],
		})
	}
	report.Table(w, "Table 3.2: Profiling Results of UTS (16 nodes)",
		[]string{"config", "improvement", "local% base", "local% opt",
			"steals/thr p10/med/p90", "critical-path wait% b/o",
			"paper-impr", "paper-base%", "paper-opt%"}, rows)
}

// fig34Layouts are the x-axis points of Figure 3.4: nodes*perNode.
func fig34Layouts() []struct{ Threads, PerNode int } {
	return []struct{ Threads, PerNode int }{
		{4, 1}, {8, 2}, {16, 2}, {32, 4}, {64, 8},
	}
}

// Figure34a regenerates Figure 3.4(a): all-to-all performance improvement
// over the base runtime for blocking puts.
func Figure34a(w io.Writer) error {
	cls, _ := ft.ClassByName("B")
	modes := []ft.ExchangeMode{ft.ExPSHM, ft.ExPSHMCast, ft.ExPthreads, ft.ExPthreadsCast}
	lays := fig34Layouts()
	// Per layout: the base-runtime reference plus the four modes.
	stride := 1 + len(modes)
	results := make([]ft.ExchangeResult, len(lays)*stride)
	err := sweep.Run(len(results), func(i int, tr trace.Tracer) error {
		lay := lays[i/stride]
		mode := ft.ExBase
		if m := i % stride; m > 0 {
			mode = modes[m-1]
		}
		r, err := ft.RunExchange(ft.ExchangeConfig{
			Machine: topo.Pyramid(), Class: cls, Threads: lay.Threads,
			PerNode: lay.PerNode, Mode: mode, Seed: seed, Tracer: tr,
		})
		results[i] = r
		return err
	})
	if err != nil {
		return err
	}
	series := make([]report.Series, len(modes))
	for li, lay := range lays {
		base := results[li*stride]
		for mi, m := range modes {
			r := results[li*stride+1+mi]
			series[mi].Label = m.String()
			series[mi].X = append(series[mi].X, float64(lay.Threads))
			series[mi].Y = append(series[mi].Y,
				(base.Total.Seconds()/r.Total.Seconds()-1)*100)
		}
	}
	report.Figure(w, "Figure 3.4(a): all-to-all improvement over base runtime (%), blocking upc_memput",
		"threads", series)
	return nil
}

// Figure34b regenerates Figure 3.4(b): async memput call vs wait time per
// runtime configuration.
func Figure34b(w io.Writer) error {
	cls, _ := ft.ClassByName("B")
	lays := fig34Layouts()
	modes := ft.ExchangeModes()
	results := make([]ft.ExchangeResult, len(lays)*len(modes))
	err := sweep.Run(len(results), func(i int, tr trace.Tracer) error {
		lay := lays[i/len(modes)]
		r, err := ft.RunExchange(ft.ExchangeConfig{
			Machine: topo.Pyramid(), Class: cls, Threads: lay.Threads,
			PerNode: lay.PerNode, Mode: modes[i%len(modes)], Async: true,
			Seed: seed, Tracer: tr,
		})
		results[i] = r
		return err
	})
	if err != nil {
		return err
	}
	var rows [][]string
	for li, lay := range lays {
		for mi, m := range modes {
			r := results[li*len(modes)+mi]
			rows = append(rows, []string{
				fmt.Sprintf("%d(%d*%d)", lay.Threads, lay.Threads/lay.PerNode, lay.PerNode),
				m.String(),
				fmt.Sprintf("%.3f", r.Call.Seconds()),
				fmt.Sprintf("%.3f", r.Wait.Seconds()),
			})
		}
	}
	report.Table(w, "Figure 3.4(b): async all-to-all, seconds in calls vs waits (upc_memput_async)",
		[]string{"nprocs", "runtime", "call(s)", "wait(s)"}, rows)
	return nil
}

// Figure42 regenerates Figure 4.2 (multi-link latency and flood
// bandwidth). panel is "a" (latency) or "b" (bandwidth).
func Figure42(w io.Writer, panel string, quick bool) error {
	links := []int{1, 2, 4, 8}
	var sizes []int64
	if panel == "a" {
		sizes = netbench.LatencySizes()
	} else {
		sizes = netbench.FloodSizes()
	}
	if quick {
		var trimmed []int64
		for i, s := range sizes {
			if i%2 == 0 {
				trimmed = append(trimmed, s)
			}
		}
		sizes = trimmed
	}
	type combo struct {
		links int
		pthr  bool
		label string
	}
	var combos []combo
	for _, pthr := range []bool{false, true} {
		for _, l := range links {
			if l == 1 && pthr {
				continue // 1-link pthreads == 1-link processes
			}
			label := fmt.Sprintf("%d link", l)
			if l > 1 {
				if pthr {
					label = fmt.Sprintf("%d link pthreads", l)
				} else {
					label = fmt.Sprintf("%d link processes", l)
				}
			}
			combos = append(combos, combo{l, pthr, label})
		}
	}
	ys := make([]float64, len(combos)*len(sizes))
	err := sweep.Run(len(ys), func(i int, tr trace.Tracer) error {
		c := combos[i/len(sizes)]
		cfg := netbench.Config{Links: c.links, Pthreads: c.pthr,
			Size: sizes[i%len(sizes)], Seed: seed, Tracer: tr}
		if panel == "a" {
			r, err := netbench.Latency(cfg)
			if err != nil {
				return err
			}
			ys[i] = r.RTT.Micros()
		} else {
			r, err := netbench.Flood(cfg)
			if err != nil {
				return err
			}
			ys[i] = r.BandwidthMBps
		}
		return nil
	})
	if err != nil {
		return err
	}
	series := make([]report.Series, len(combos))
	for ci, c := range combos {
		series[ci].Label = c.label
		for szi, sz := range sizes {
			series[ci].X = append(series[ci].X, float64(sz))
			series[ci].Y = append(series[ci].Y, ys[ci*len(sizes)+szi])
		}
	}
	title := "Figure 4.2(a): multi-link round-trip latency (us) vs size"
	if panel == "b" {
		title = "Figure 4.2(b): multi-link flood bandwidth (MB/s) vs size"
	}
	report.Figure(w, title, "bytes", series)
	return nil
}

// step is one named entry of the experiment index: either run, which
// renders from a sweep of its own, or render, which renders from the
// plan's shared points.
type step struct {
	name   string
	run    func(w io.Writer) error
	render func(w io.Writer, p *plan)
}

func steps(quick bool) []step {
	return []step{
		{name: "Table 3.1", run: Table31},
		{name: "Figure 3.1b", run: FigureXlate},
		{name: "Figure 3.3", render: figure33},
		{name: "Table 3.2", render: table32},
		{name: "Figure 3.4(a)", run: Figure34a},
		{name: "Figure 3.4(b)", run: Figure34b},
		{name: "Figure 4.2(a)", run: func(w io.Writer) error { return Figure42(w, "a", quick) }},
		{name: "Figure 4.2(b)", run: func(w io.Writer) error { return Figure42(w, "b", quick) }},
		{name: "Table 4.1", run: Table41},
		{name: "Figure 4.4", render: figure44},
		{name: "Figure 4.5", render: figure45},
		{name: "Figure 4.6", render: figure46},
		{name: "Summary", render: summary},
	}
}

// Check returns nil when every one of names is an experiment of the
// index, and otherwise an error naming the first unknown one and every
// valid name.
func Check(names []string) error {
	var have []string
	for _, s := range steps(false) {
		have = append(have, s.name)
	}
	for _, name := range names {
		if !slices.Contains(have, name) {
			return fmt.Errorf("unknown experiment %q (have %q)", name, have)
		}
	}
	return nil
}

// Run renders the named experiments in index order, each followed by a
// blank line; no names means every experiment (the upc-experiments -only
// flag). Every name is checked before any experiment runs, so an unknown
// one fails at once and writes nothing.
//
// The steps with sweeps of their own run first, each into a held
// buffer, so that their working sets (Table 3.1's STREAM arrays) are
// gone before the plan's results accumulate. The plan then simulates
// every distinct point the other steps look up, once, and all steps are
// written in index order. The trace stream follows that run order.
func Run(w io.Writer, names []string, quick bool) error {
	if err := Check(names); err != nil {
		return err
	}
	var sel []step
	for _, s := range steps(quick) {
		if len(names) == 0 || slices.Contains(names, s.name) {
			sel = append(sel, s)
		}
	}
	held := make([]bytes.Buffer, len(sel))
	for i, s := range sel {
		if s.run == nil {
			continue
		}
		if err := s.run(&held[i]); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	p := newPlan(sel, quick)
	if err := p.run(); err != nil {
		return err
	}
	for i, s := range sel {
		if s.render != nil {
			p.step = s.name
			s.render(&held[i], p)
		}
		if _, err := held[i].WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
