// Package repro's root benchmarks regenerate each table and figure of the
// thesis at reduced sweep breadth (one representative configuration per
// experiment) and surface the headline quantity via ReportMetric. The
// full sweeps live in cmd/upc-experiments.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/apps/ft"
	"repro/internal/apps/netbench"
	"repro/internal/apps/ra"
	"repro/internal/apps/stream"
	"repro/internal/apps/uts"
	"repro/internal/topo"
)

// BenchmarkTable31_TwistedStream regenerates Table 3.1 and reports the
// cast-vs-baseline ratio (paper: 23.2/3.2 ≈ 7.3x).
func BenchmarkTable31_TwistedStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := stream.Table31(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rs[0].GBps, "baseline-GB/s")
		b.ReportMetric(rs[2].GBps, "cast-GB/s")
		b.ReportMetric(rs[2].GBps/rs[0].GBps, "cast/baseline")
	}
}

// BenchmarkTable41_HybridStream regenerates Table 4.1 and reports the
// unbound-1x8 fraction of full bandwidth (paper: 13.9/24.5 ≈ 0.57).
func BenchmarkTable41_HybridStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := stream.Table41(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rs[0].GBps, "UPC8-GB/s")
		b.ReportMetric(rs[2].GBps/rs[0].GBps, "1x8-unbound-fraction")
	}
}

func utsBench(b *testing.B, conduit string, strat uts.Strategy) uts.Result {
	b.Helper()
	gran := 8
	if conduit == "gige" {
		gran = 20
	}
	r, err := uts.Run(uts.Config{
		Machine: topo.Pyramid(), ConduitName: conduit,
		Threads: 64, PerNode: 4, Strategy: strat,
		Granularity: gran, Batch: 64, Tree: uts.Small(400000), Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkFigure33_UTS_InfiniBand reproduces one Figure 3.3(a) point:
// 64 processors on 16 nodes, baseline vs optimized.
func BenchmarkFigure33_UTS_InfiniBand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := utsBench(b, "ibv-ddr", uts.BaselineRR)
		opt := utsBench(b, "ibv-ddr", uts.LocalRapid)
		b.ReportMetric(base.MNodesPerSec, "baseline-Mn/s")
		b.ReportMetric(opt.MNodesPerSec, "optimized-Mn/s")
	}
}

// BenchmarkFigure33_UTS_Ethernet reproduces one Figure 3.3(b) point,
// where the locality optimization matters most (paper: up to 2x).
func BenchmarkFigure33_UTS_Ethernet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := utsBench(b, "gige", uts.BaselineRR)
		opt := utsBench(b, "gige", uts.LocalRapid)
		b.ReportMetric(base.MNodesPerSec, "baseline-Mn/s")
		b.ReportMetric(opt.MNodesPerSec, "optimized-Mn/s")
		b.ReportMetric(opt.MNodesPerSec/base.MNodesPerSec, "speedup")
	}
}

// BenchmarkTable32_UTSProfile reproduces the Table 3.2 local-steal
// percentages for the 64/4 InfiniBand row.
func BenchmarkTable32_UTSProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := utsBench(b, "ibv-ddr", uts.BaselineRR)
		opt := utsBench(b, "ibv-ddr", uts.LocalRapid)
		b.ReportMetric(base.LocalStealPct(), "local%-baseline")
		b.ReportMetric(opt.LocalStealPct(), "local%-optimized")
	}
}

// BenchmarkFigure34a_ExchangeRuntimes reproduces the Figure 3.4(a)
// comparison at 32 threads on 8 Pyramid nodes: PSHM improvement over the
// base runtime for the class B all-to-all.
func BenchmarkFigure34a_ExchangeRuntimes(b *testing.B) {
	cls, _ := ft.ClassByName("B")
	for i := 0; i < b.N; i++ {
		base, err := ft.RunExchange(ft.ExchangeConfig{
			Class: cls, Threads: 32, PerNode: 4,
			Mode: ft.ExBase, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		pshm, err := ft.RunExchange(ft.ExchangeConfig{
			Class: cls, Threads: 32, PerNode: 4,
			Mode: ft.ExPSHM, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((base.Total.Seconds()/pshm.Total.Seconds()-1)*100, "PSHM-improvement-%")
	}
}

// BenchmarkFigure34b_AsyncExchange reproduces one Figure 3.4(b) bar:
// call vs wait time of the asynchronous all-to-all under PSHM.
func BenchmarkFigure34b_AsyncExchange(b *testing.B) {
	cls, _ := ft.ClassByName("B")
	for i := 0; i < b.N; i++ {
		r, err := ft.RunExchange(ft.ExchangeConfig{
			Class: cls, Threads: 32, PerNode: 4,
			Mode: ft.ExPSHM, Async: true, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Call.Seconds(), "call-s")
		b.ReportMetric(r.Wait.Seconds(), "wait-s")
	}
}

// BenchmarkFigure42a_MultiLinkLatency reproduces the Figure 4.2(a)
// contrast at 4KB: 8 process link-pairs vs 8 pthread pairs.
func BenchmarkFigure42a_MultiLinkLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		proc, err := netbench.Latency(netbench.Config{Links: 8, Size: 4096, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		pthr, err := netbench.Latency(netbench.Config{Links: 8, Size: 4096, Pthreads: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(proc.RTT.Micros(), "processes-us")
		b.ReportMetric(pthr.RTT.Micros(), "pthreads-us")
	}
}

// BenchmarkFigure42b_MultiLinkFlood reproduces the Figure 4.2(b)
// contrast at 1MB: single link vs 4 process links.
func BenchmarkFigure42b_MultiLinkFlood(b *testing.B) {
	for i := 0; i < b.N; i++ {
		one, err := netbench.Flood(netbench.Config{Links: 1, Size: 1 << 20, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		four, err := netbench.Flood(netbench.Config{Links: 4, Size: 1 << 20, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(one.BandwidthMBps, "1link-MB/s")
		b.ReportMetric(four.BandwidthMBps, "4link-MB/s")
	}
}

// BenchmarkFigure44_FTBreakdown reproduces the Figure 4.4 observation at
// 32 threads: compute kernels scale while the all-to-all saturates.
func BenchmarkFigure44_FTBreakdown(b *testing.B) {
	cls, _ := ft.ClassByName("B")
	for i := 0; i < b.N; i++ {
		r8, err := ft.Run(ft.Config{Machine: topo.Lehman(), Class: cls,
			Variant: ft.UPCProcesses, Threads: 8, PerNode: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		r32, err := ft.Run(ft.Config{Machine: topo.Lehman(), Class: cls,
			Variant: ft.UPCProcesses, Threads: 32, PerNode: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r8.Phases["fft2d"])/float64(r32.Phases["fft2d"]), "fft2d-speedup-8to32")
		b.ReportMetric(float64(r8.Comm)/float64(r32.Comm), "alltoall-speedup-8to32")
	}
}

// BenchmarkFigure45_CommTime reproduces the Figure 4.5 ordering at 64
// cores on 8 Lehman nodes: MPI < hybrid < pthreads < processes.
func BenchmarkFigure45_CommTime(b *testing.B) {
	cls, _ := ft.ClassByName("B")
	run := func(v ft.Variant, threads, per, subs int) float64 {
		r, err := ft.Run(ft.Config{Machine: topo.Lehman(), Class: cls, Variant: v,
			Threads: threads, PerNode: per, SubThreads: subs, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return r.Comm.Seconds()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(ft.MPIFortran, 64, 8, 0), "MPI-s")
		b.ReportMetric(run(ft.UPCProcesses, 64, 8, 0), "UPCproc-s")
		b.ReportMetric(run(ft.UPCPthreads, 64, 8, 0), "UPCpthr-s")
		b.ReportMetric(run(ft.HybridOMP, 16, 2, 4), "hybrid-s")
	}
}

// BenchmarkFigure46_HybridSpeedup reproduces the headline Figure 4.6 /
// conclusion number: the 16*4 hybrid against 64 process-UPC threads
// (paper: ~1.4x).
func BenchmarkFigure46_HybridSpeedup(b *testing.B) {
	cls, _ := ft.ClassByName("B")
	for i := 0; i < b.N; i++ {
		pure, err := ft.Run(ft.Config{Machine: topo.Lehman(), Class: cls,
			Variant: ft.UPCProcesses, Threads: 64, PerNode: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		hyb, err := ft.Run(ft.Config{Machine: topo.Lehman(), Class: cls,
			Variant: ft.HybridOMP, Threads: 16, PerNode: 2, SubThreads: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pure.Elapsed.Seconds()/hyb.Elapsed.Seconds(), "hybrid-speedup")
	}
}

// BenchmarkRandomAccessAblation runs the thread-group aggregation
// ablation the thesis motivates for RandomAccess-class applications
// (Section 4.4): fine-grained vs per-thread vs per-node aggregation.
func BenchmarkRandomAccessAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, v := range ra.Variants() {
			r, err := ra.Run(ra.Config{
				Machine: topo.Pyramid(), Threads: 16, PerNode: 4,
				TableSize: 1 << 16, Updates: 4000, Variant: v, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.GUPS, v.String()+"-GUPS")
		}
	}
}

// ---- Ablation benches for the design choices DESIGN.md calls out ----

// BenchmarkAblationStealGranularity sweeps the UTS steal chunk — the
// parameter the paper reports tuning per network (8 on InfiniBand, 20 on
// Ethernet).
func BenchmarkAblationStealGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, gran := range []int{2, 8, 32} {
			r, err := uts.Run(uts.Config{
				Machine: topo.Pyramid(), ConduitName: "ibv-ddr",
				Threads: 32, PerNode: 2, Strategy: uts.LocalRapid,
				Granularity: gran, Batch: 64, Tree: uts.Small(200000), Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.MNodesPerSec, fmt.Sprintf("gran%d-Mn/s", gran))
		}
	}
}

// BenchmarkAblationOverlap contrasts split-phase against the
// communication/computation-overlap FT variant on the same configuration.
func BenchmarkAblationOverlap(b *testing.B) {
	cls, _ := ft.ClassByName("A")
	for i := 0; i < b.N; i++ {
		split, err := ft.Run(ft.Config{Machine: topo.Lehman(), Class: cls,
			Variant: ft.UPCProcesses, Impl: ft.SplitPhase,
			Threads: 32, PerNode: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		over, err := ft.Run(ft.Config{Machine: topo.Lehman(), Class: cls,
			Variant: ft.UPCProcesses, Impl: ft.Overlap,
			Threads: 32, PerNode: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(split.Elapsed.Seconds(), "split-s")
		b.ReportMetric(over.Elapsed.Seconds(), "overlap-s")
	}
}
