// Package experiments regenerates every table and figure of the thesis's
// evaluation (the per-experiment index of DESIGN.md) and renders the same
// rows or series the paper reports. Every step renders from one plan of
// distinct simulations (plan.go): the plan simulates each point once, in
// index order, on one sweep pool, so a point several steps show runs
// once and no step boundary drains the pool. The quick flag trades sweep
// breadth for runtime (smaller trees, fewer message sizes, no SMT
// points); the shapes are preserved either way.
package experiments

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/apps/ft"
	"repro/internal/apps/netbench"
	"repro/internal/apps/ra"
	"repro/internal/apps/stream"
	"repro/internal/apps/uts"
	"repro/internal/causality"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/topo"
)

const seed = 1

// table31 renders Table 3.1 (twisted STREAM triad).
func table31(w io.Writer, p *plan) error {
	paper := []string{"3.2", "7.2", "23.2", "23.4"}
	var rows [][]string
	for i, v := range stream.Variants() {
		r := p.lookup(twistedPoint{v}, false).stream
		rows = append(rows, []string{v.String(), fmt.Sprintf("%.1f", r.GBps), paper[i]})
	}
	report.Table(w, "Table 3.1: Performance of the Twisted STREAM Triad (GB/s)",
		[]string{"variant", "model", "paper"}, rows)
	return nil
}

// table41 renders Table 4.1 (hybrid STREAM triad).
func table41(w io.Writer, p *plan) error {
	paper := []string{"24.5", "23.7", "13.9", "24.7", "24.7"}
	var rows [][]string
	for i, row := range stream.Table41Rows() {
		r := p.lookup(hybridPoint{i}, false).stream
		rows = append(rows, []string{row.Name, fmt.Sprintf("%.1f", r.GBps), paper[i]})
	}
	report.Table(w, "Table 4.1: Performance of the STREAM Triad (GB/s)",
		[]string{"configuration", "model", "paper"}, rows)
	return nil
}

// utsTree picks the tree size: the paper's 4.35M-node realization, or
// uts.Small(400000) (235,113 nodes) for quick runs.
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
func figure33(w io.Writer, p *plan) error {
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
	return nil
}

// table32 renders Table 3.2 (UTS profiling: overall improvement and
// local-steal percentages) from the baseline and optimized Figure 3.3
// points of each shape. The steal statistics come from the runs' own
// results, the critical-path column from their causality recorders.
func table32(w io.Writer, p *plan) error {
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
	return nil
}

// fig34Layouts are the x-axis points of Figure 3.4: nodes*perNode.
func fig34Layouts() []struct{ Threads, PerNode int } {
	return []struct{ Threads, PerNode int }{
		{4, 1}, {8, 2}, {16, 2}, {32, 4}, {64, 8},
	}
}

// figure34a renders Figure 3.4(a): all-to-all performance improvement
// over the base runtime for blocking puts.
func figure34a(w io.Writer, p *plan) error {
	modes := []ft.ExchangeMode{ft.ExPSHM, ft.ExPSHMCast, ft.ExPthreads, ft.ExPthreadsCast}
	series := make([]report.Series, len(modes))
	for _, lay := range fig34Layouts() {
		base := p.lookup(exchangePoint{lay.Threads, lay.PerNode, ft.ExBase, false}, false).exchange
		for mi, m := range modes {
			r := p.lookup(exchangePoint{lay.Threads, lay.PerNode, m, false}, false).exchange
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

// figure34b renders Figure 3.4(b): async memput call vs wait time per
// runtime configuration.
func figure34b(w io.Writer, p *plan) error {
	var rows [][]string
	for _, lay := range fig34Layouts() {
		for _, m := range ft.ExchangeModes() {
			r := p.lookup(exchangePoint{lay.Threads, lay.PerNode, m, true}, false).exchange
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

// figure42 renders Figure 4.2 (multi-link latency and flood bandwidth).
// panel is "a" (latency) or "b" (bandwidth).
func figure42(w io.Writer, p *plan, panel string) error {
	sizes, title := netbench.LatencySizes(), "Figure 4.2(a): multi-link round-trip latency (us) vs size"
	if panel == "b" {
		sizes, title = netbench.FloodSizes(), "Figure 4.2(b): multi-link flood bandwidth (MB/s) vs size"
	}
	if p.quick {
		var trimmed []int64
		for i, s := range sizes {
			if i%2 == 0 {
				trimmed = append(trimmed, s)
			}
		}
		sizes = trimmed
	}
	var series []report.Series
	for _, pthr := range []bool{false, true} {
		for _, l := range []int{1, 2, 4, 8} {
			if l == 1 && pthr {
				continue // 1-link pthreads == 1-link processes
			}
			s := report.Series{Label: fmt.Sprintf("%d link", l)}
			if l > 1 && pthr {
				s.Label += " pthreads"
			} else if l > 1 {
				s.Label += " processes"
			}
			for _, sz := range sizes {
				r := p.lookup(netPoint{l, pthr, sz, panel}, false).net
				s.X = append(s.X, float64(sz))
				if panel == "a" {
					s.Y = append(s.Y, r.RTT.Micros())
				} else {
					s.Y = append(s.Y, r.BandwidthMBps)
				}
			}
			series = append(series, s)
		}
	}
	report.Figure(w, title, "bytes", series)
	return nil
}

// RandomAccess runs at one configuration at every scale: 32 threads,
// 4 per node, on Pyramid, with a 1<<18-element table and 8192 updates
// per thread.
const (
	raThreads = 32
	raPerNode = 4
	raTable   = 1 << 18
	raUpdates = 8192
)

// randomAccess renders the RandomAccess (GUPS) ablation, the other
// application class the thesis names as suited to thread grouping
// (Section 4.4): fine-grained updates against per-thread and per-node
// aggregation. ra.Run verifies every table against the sequential
// reference.
func randomAccess(w io.Writer, p *plan) error {
	var rows [][]string
	for _, v := range ra.Variants() {
		r := p.lookup(raPoint{v}, false).ra
		rows = append(rows, []string{v.String(), fmt.Sprintf("%.5f", r.GUPS), fmt.Sprint(r.Messages), r.Elapsed.String()})
	}
	report.Table(w, fmt.Sprintf("RandomAccess ablation: %d threads on %s (verified)", raThreads, topo.Pyramid().Name),
		[]string{"variant", "GUPS", "messages", "time"}, rows)
	return nil
}

// step is one named entry of the experiment index, rendered from the
// plan's points.
type step struct {
	name   string
	render func(w io.Writer, p *plan) error
}

var steps = []step{
	{"Table 3.1", table31},
	{"Figure 3.1b", figure31b},
	{"Figure 3.3", figure33},
	{"Table 3.2", table32},
	{"Figure 3.4(a)", figure34a},
	{"Figure 3.4(b)", figure34b},
	{"Figure 4.2(a)", func(w io.Writer, p *plan) error { return figure42(w, p, "a") }},
	{"Figure 4.2(b)", func(w io.Writer, p *plan) error { return figure42(w, p, "b") }},
	{"Table 4.1", table41},
	{"Figure 4.4", figure44},
	{"Figure 4.5", figure45},
	{"Figure 4.6", figure46},
	{"Summary", summary},
	{"Extension: RandomAccess", randomAccess},
}

// Check returns nil when every one of names is an experiment of the
// index, and otherwise an error naming the first unknown one and every
// valid name.
func Check(names []string) error {
	var have []string
	for _, s := range steps {
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
// one fails at once and writes nothing. The plan simulates every
// distinct point the selected steps look up, once, in index order (the
// order of the trace stream), before the first step is written.
func Run(w io.Writer, names []string, quick bool) error {
	if err := Check(names); err != nil {
		return err
	}
	var sel []step
	for _, s := range steps {
		if len(names) == 0 || slices.Contains(names, s.name) {
			sel = append(sel, s)
		}
	}
	p := newPlan(sel, quick)
	if err := p.run(); err != nil {
		return err
	}
	for _, s := range sel {
		p.step = s.name
		if err := s.render(w, p); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
