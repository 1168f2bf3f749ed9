package experiments

import (
	"fmt"
	"io"

	"repro/internal/apps/ft"
	"repro/internal/apps/uts"
	"repro/internal/report"
	"repro/internal/sim"
)

// ftThreads lists the Lehman strong-scaling points: 1..64 cores on 8 nodes
// plus the 128-thread SMT point unless quick.
func ftThreads(quick bool) []int {
	ts := []int{1, 2, 4, 8, 16, 32, 64}
	if !quick {
		ts = append(ts, 128)
	}
	return ts
}

func perNodeFor(threads int) int {
	if threads <= 8 {
		return 1
	}
	return threads / 8
}

// figure44 renders Figure 4.4: per-phase speedups of the FT benchmark
// on Lehman, 1 to 128 threads (the 128-thread points run two SMT threads
// per core).
func figure44(w io.Writer, p *plan) error {
	phases := []string{"evolve", "transpose", "fft1d", "fft2d", "comm-call"}
	labels := map[string]string{
		"evolve": "Evolve", "transpose": "Local Transpose",
		"fft1d": "FFT 1D", "fft2d": "FFT 2D", "comm-call": "All-to-All (split-phase)",
	}
	base := map[string]sim.Duration{}
	series := make([]report.Series, len(phases))
	for i, ph := range phases {
		series[i].Label = labels[ph]
	}
	var cpRows [][]string
	for _, threads := range ftThreads(p.quick) {
		pt := p.lookup(ftPoint{"lehman", ft.UPCProcesses, ft.SplitPhase, threads, perNodeFor(threads), 0}, true)
		for i, ph := range phases {
			d := pt.ft.Phases[ph]
			if ph == "comm-call" {
				d += pt.ft.Phases["comm-wait"]
			}
			if threads == 1 {
				base[ph] = d
			}
			speedup := 0.0
			if d > 0 {
				speedup = float64(base[ph]) / float64(d)
			}
			series[i].X = append(series[i].X, float64(threads))
			series[i].Y = append(series[i].Y, speedup)
		}
		cpRows = append(cpRows, []string{fmt.Sprintf("%d", threads), fmt.Sprintf("%.1f%%", pt.cpWait)})
	}
	report.Figure(w, "Figure 4.4: NAS FT runtime performance breakdown (speedup vs 1 thread, Lehman)",
		"threads", series)
	// The critical-path share of each point: how much of the makespan
	// the causality analysis attributes to waiting rather than compute.
	fmt.Fprintln(w)
	report.Table(w, "Figure 4.4 (supplement): critical-path wait share",
		[]string{"threads", "critical-path wait%"}, cpRows)
	return nil
}

// figure45 renders Figure 4.5: time in communication calls of the
// split-phase implementation, per platform.
func figure45(w io.Writer, p *plan) error {
	plats := []struct {
		name, machine string
		nodes         int
		cores         []int
	}{
		{"Lehman (8 nodes)", "lehman", 8, []int{8, 16, 32, 64, 128}},
		{"Pyramid (16 nodes)", "pyramid", 16, []int{16, 32, 64, 128}},
	}
	for _, pl := range plats {
		cores := pl.cores
		if p.quick {
			cores = cores[:len(cores)-1] // skip the most expensive point
		}
		series := []report.Series{
			{Label: "MPI"}, {Label: "UPC (processes)"},
			{Label: "UPC (pthreads)"}, {Label: "UPC*Threads (hybrid)"},
		}
		for _, total := range cores {
			per := total / pl.nodes
			if per < 1 {
				continue
			}
			// The hybrid runs two masters per node, sub-threads filling
			// the rest.
			masters := 2 * pl.nodes
			subs := total / masters
			if subs < 1 {
				masters, subs = total, 1
			}
			for k, key := range []ftPoint{
				{pl.machine, ft.MPIFortran, ft.SplitPhase, total, per, 0},
				{pl.machine, ft.UPCProcesses, ft.SplitPhase, total, per, 0},
				{pl.machine, ft.UPCPthreads, ft.SplitPhase, total, per, 0},
				{pl.machine, ft.HybridOMP, ft.SplitPhase, masters, masters / pl.nodes, subs},
			} {
				series[k].X = append(series[k].X, float64(total))
				series[k].Y = append(series[k].Y, p.lookup(key, false).ft.Comm.Seconds())
			}
		}
		report.Figure(w, fmt.Sprintf("Figure 4.5: split-phase communication time (s), %s", pl.name),
			"cores", series)
		fmt.Fprintln(w)
	}
	return nil
}

// fig46Configs are the UPC*Threads configurations of Figure 4.6 on 8
// Lehman nodes (masters * sub-threads).
func fig46Configs(quick bool) []struct{ U, S int } {
	cfgs := []struct{ U, S int }{
		{8, 1}, {8, 2}, {16, 1}, {16, 2}, {32, 1}, {32, 2}, {16, 4}, {8, 8},
	}
	if !quick {
		cfgs = append(cfgs, struct{ U, S int }{32, 4}, struct{ U, S int }{64, 2}, struct{ U, S int }{16, 8})
	}
	return cfgs
}

// figure46 renders Figure 4.6(a,b): relative performance of the
// sub-thread variants over process UPC at the same total thread count,
// for split-phase and overlap.
func figure46(w io.Writer, p *plan) error {
	variants := []ft.Variant{ft.HybridOMP, ft.HybridCilk, ft.HybridPool, ft.UPCPthreads}
	for _, impl := range []ft.Impl{ft.SplitPhase, ft.Overlap} {
		series := make([]report.Series, len(variants))
		for i, v := range variants {
			series[i].Label = v.String()
		}
		for _, c := range fig46Configs(p.quick) {
			total := c.U * c.S
			base := p.lookup(ftPoint{"lehman", ft.UPCProcesses, impl, total, perNodeFor(total), 0}, false)
			x := float64(c.U*1000 + c.S) // encodes the U*S label
			for i, v := range variants {
				key := ftPoint{"lehman", v, impl, c.U, perNodeFor(c.U), c.S}
				if v == ft.UPCPthreads {
					key.threads, key.perNode, key.subs = total, perNodeFor(total), 0
				}
				y := p.lookup(key, false).ft.Elapsed.Seconds()
				series[i].X = append(series[i].X, x)
				series[i].Y = append(series[i].Y, (base.ft.Elapsed.Seconds()/y-1)*100)
			}
		}
		report.Figure(w,
			fmt.Sprintf("Figure 4.6 (%v): improvement over UPC processes (%%); x = masters*1000+subs", impl),
			"U*S", series)
		fmt.Fprintln(w)
	}
	return nil
}

// summary renders the thesis's two headline conclusions against the
// model: Figure 4.4's 64-thread process point against Figure 4.6's
// 16*4 UPC*OpenMP point, and Figure 3.3's two Ethernet 128-process
// points.
func summary(w io.Writer, p *plan) error {
	pure := p.lookup(ftPoint{"lehman", ft.UPCProcesses, ft.SplitPhase, 64, 8, 0}, false).ft
	hyb := p.lookup(ftPoint{"lehman", ft.HybridOMP, ft.SplitPhase, 16, 2, 4}, false).ft
	utsBase := p.lookup(utsPoint{"gige", 128, uts.BaselineRR}, false).uts
	utsOpt := p.lookup(utsPoint{"gige", 128, uts.LocalRapid}, false).uts
	ftGain := pure.Elapsed.Seconds() / hyb.Elapsed.Seconds()
	utsGain := utsOpt.MNodesPerSec / utsBase.MNodesPerSec

	report.Table(w, "Headline conclusions (paper vs model)",
		[]string{"claim", "paper", "model"},
		[][]string{
			{"NAS FT hybrid UPC*threads speedup over process UPC (64 cores)",
				"1.4x", fmt.Sprintf("%.2fx", ftGain)},
			{"UTS thread-group speedup on Ethernet, 8-way SMP nodes",
				"2.0x", fmt.Sprintf("%.2fx", utsGain)},
		})
	return nil
}
