package ft

import (
	"maps"
	"testing"

	"repro/internal/topo"
	"repro/internal/trace"
)

func classT() Class {
	c, _ := ClassByName("T")
	return c
}

func TestClassLookup(t *testing.T) {
	b, ok := ClassByName("B")
	if !ok || b.NX != 512 || b.NY != 256 || b.NZ != 256 || b.Iters != 20 {
		t.Errorf("class B wrong: %+v", b)
	}
	if _, ok := ClassByName("Z"); ok {
		t.Error("unknown class should not resolve")
	}
	if !b.Decomposable(128) {
		t.Error("class B must decompose over 128 threads")
	}
	if b.Decomposable(512) {
		t.Error("class B cannot decompose over 512 threads (NY=256... NZ=256/512)")
	}
	if b.String() != "B (512*256*256)" {
		t.Errorf("String = %q", b.String())
	}
}

func verifyCfg(variant Variant, impl Impl, threads, perNode, subs int) Config {
	return Config{
		Machine:    topo.Lehman(),
		Class:      classT(),
		Variant:    variant,
		Impl:       impl,
		Threads:    threads,
		PerNode:    perNode,
		SubThreads: subs,
		Verify:     true,
		Seed:       1,
	}
}

func TestVerifyUPCSplitPhase(t *testing.T) {
	r, err := Run(verifyCfg(UPCProcesses, SplitPhase, 4, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Errorf("round trip failed: max error %g", r.MaxErr)
	}
}

func TestVerifyUPCOverlap(t *testing.T) {
	r, err := Run(verifyCfg(UPCProcesses, Overlap, 4, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Errorf("overlap round trip failed: max error %g", r.MaxErr)
	}
}

func TestVerifyUPCPthreads(t *testing.T) {
	r, err := Run(verifyCfg(UPCPthreads, SplitPhase, 4, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Errorf("pthreads round trip failed: max error %g", r.MaxErr)
	}
}

func TestVerifyHybridVariants(t *testing.T) {
	for _, v := range []Variant{HybridOMP, HybridCilk, HybridPool} {
		for _, impl := range []Impl{SplitPhase, Overlap} {
			r, err := Run(verifyCfg(v, impl, 2, 1, 4))
			if err != nil {
				t.Fatalf("%v/%v: %v", v, impl, err)
			}
			if !r.Verified {
				t.Errorf("%v/%v round trip failed: max error %g", v, impl, r.MaxErr)
			}
		}
	}
}

func TestVerifyMPI(t *testing.T) {
	r, err := Run(verifyCfg(MPIFortran, SplitPhase, 4, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Errorf("MPI round trip failed: max error %g", r.MaxErr)
	}
}

func TestVerifySingleThreadDegenerate(t *testing.T) {
	r, err := Run(verifyCfg(UPCProcesses, SplitPhase, 1, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Errorf("P=1 round trip failed: max error %g", r.MaxErr)
	}
}

func modelCfg(variant Variant, impl Impl, threads, perNode, subs int) Config {
	c := verifyCfg(variant, impl, threads, perNode, subs)
	c.Verify = false
	c.Class, _ = ClassByName("S")
	return c
}

func TestModelModeProducesPhases(t *testing.T) {
	r, err := Run(modelCfg(UPCProcesses, SplitPhase, 8, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Elapsed <= 0 || r.PerIter <= 0 {
		t.Errorf("no elapsed time: %+v", r)
	}
	for _, phase := range []string{"evolve", "fft2d", "transpose", "fft1d", "comm-call", "comm-wait"} {
		if r.Phases[phase] <= 0 {
			t.Errorf("phase %q unrecorded (phases: %v)", phase, r.Phases)
		}
	}
	if r.Comm <= 0 || r.Comm > r.Elapsed {
		t.Errorf("comm = %v of %v", r.Comm, r.Elapsed)
	}
}

func TestModelComputeScalesWithThreads(t *testing.T) {
	r4, err := Run(modelCfg(UPCProcesses, SplitPhase, 4, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	r16, err := Run(modelCfg(UPCProcesses, SplitPhase, 16, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	// fft2d is compute-bound and must scale close to 4x from 4 to 16
	// threads.
	speedup := float64(r4.Phases["fft2d"]) / float64(r16.Phases["fft2d"])
	if speedup < 3.2 || speedup > 4.4 {
		t.Errorf("fft2d speedup 4->16 threads = %.2f, want ~4", speedup)
	}
}

func TestHybridMatchesPureConcurrency(t *testing.T) {
	// 2 masters x 4 subs should be in the same ballpark as 8 pure UPC
	// threads for the compute phases.
	pure, err := Run(modelCfg(UPCProcesses, SplitPhase, 8, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := Run(modelCfg(HybridOMP, SplitPhase, 2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(hyb.Phases["fft2d"]) / float64(pure.Phases["fft2d"])
	if ratio < 0.7 || ratio > 1.6 {
		t.Errorf("hybrid/pure fft2d ratio = %.2f, want ~1", ratio)
	}
}

func TestOverlapReducesExposedComm(t *testing.T) {
	// Overlap should hide part of the exchange behind computation:
	// total elapsed should not exceed split-phase.
	split, err := Run(modelCfg(UPCProcesses, SplitPhase, 16, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	over, err := Run(modelCfg(UPCProcesses, Overlap, 16, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if float64(over.Elapsed) > 1.1*float64(split.Elapsed) {
		t.Errorf("overlap (%v) much slower than split-phase (%v)", over.Elapsed, split.Elapsed)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Machine: topo.Lehman(), Class: classT(), Threads: 3, PerNode: 1}, // not decomposable
		{Machine: topo.Lehman(), Class: classT(), Threads: 2, PerNode: 1,
			Variant: HybridOMP}, // no subthreads
		{Machine: topo.Lehman(), Class: classT(), Threads: 2, PerNode: 1,
			Variant: MPIFortran, Impl: Overlap}, // MPI has no overlap
	}
	for i, c := range bad {
		if _, err := Run(c); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestExchangeStudyOrdering(t *testing.T) {
	// Figure 3.4(a)'s premise: PSHM and pthreads beat the base runtime
	// for the intra-node portion, and manual cast is at parity with the
	// runtime optimizations (no further gain).
	cls, _ := ClassByName("B") // the paper's geometry: blocks large enough for zero-copy
	times := map[ExchangeMode]ExchangeResult{}
	for _, m := range ExchangeModes() {
		r, err := RunExchange(ExchangeConfig{
			Class:   cls,
			Threads: 16, PerNode: 4, Mode: m, Repeats: 2, Seed: 1,
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		times[m] = r
		t.Logf("%-16s call=%v wait=%v total=%v", m, r.Call, r.Wait, r.Total)
	}
	if times[ExPSHM].Total >= times[ExBase].Total {
		t.Errorf("PSHM (%v) must beat base (%v)", times[ExPSHM].Total, times[ExBase].Total)
	}
	if times[ExPthreads].Total >= times[ExBase].Total {
		t.Errorf("pthreads (%v) must beat base (%v)", times[ExPthreads].Total, times[ExBase].Total)
	}
	// Manual cast ~ parity with the runtime path (within 15%).
	r := float64(times[ExPSHMCast].Total) / float64(times[ExPSHM].Total)
	if r < 0.8 || r > 1.15 {
		t.Errorf("PSHM+cast / PSHM = %.2f, want ~1 (runtime optimizations match manual)", r)
	}
}

// TestCastExchangeTracesEveryPut: the manual cast moves the same data
// as PSHM's upc_memput, so the comm matrix must count the same put
// instants and bytes under both modes.
func TestCastExchangeTracesEveryPut(t *testing.T) {
	cls, _ := ClassByName("S")
	want := map[string]int{trace.ClassNetwork: 64, trace.ClassPSHM: 48, trace.ClassSelf: 16}
	for _, mode := range []ExchangeMode{ExPSHM, ExPSHMCast} {
		buf := trace.NewBuffer()
		if _, err := RunExchange(ExchangeConfig{Class: cls, Threads: 8, PerNode: 4,
			Mode: mode, Async: true, Repeats: 2, Seed: 1, Tracer: buf}); err != nil {
			t.Fatal(err)
		}
		puts := map[string]int{}
		var bytes int64
		for _, e := range buf.Events() {
			if e.Cat == trace.CatComm && e.Name == "put" {
				puts[e.Aux]++
				bytes += e.Arg
			}
		}
		if !maps.Equal(puts, want) || bytes != 8388608 {
			t.Errorf("%v: put instants %v (%d B), want %v (8388608 B)", mode, puts, bytes, want)
		}
	}
}

func TestExchangeAsyncSplitsCallAndWait(t *testing.T) {
	cls, _ := ClassByName("S")
	r, err := RunExchange(ExchangeConfig{
		Class:   cls,
		Threads: 8, PerNode: 2, Mode: ExPSHM, Async: true, Repeats: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Call <= 0 || r.Wait <= 0 {
		t.Errorf("async exchange should report both call (%v) and wait (%v) time", r.Call, r.Wait)
	}
	if r.Call >= r.Wait {
		t.Errorf("async call time (%v) should be below wait time (%v)", r.Call, r.Wait)
	}
}

func TestVariantAndImplStrings(t *testing.T) {
	if MPIFortran.String() != "MPI" || UPCProcesses.String() != "UPC (processes)" ||
		HybridCilk.String() != "UPC*Cilk++" {
		t.Error("variant names wrong")
	}
	if SplitPhase.String() != "split-phase" || Overlap.String() != "overlap" {
		t.Error("impl names wrong")
	}
	if !HybridOMP.Hybrid() || UPCPthreads.Hybrid() {
		t.Error("Hybrid() wrong")
	}
}

func TestPhasesAccountForMostOfElapsed(t *testing.T) {
	r, err := Run(modelCfg(UPCProcesses, SplitPhase, 8, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, d := range r.Phases {
		sum += int64(d)
	}
	// Phase maxima can overlap across threads, but their sum should be
	// within a factor of ~2 of the elapsed time in both directions.
	if sum < int64(r.Elapsed)/2 || sum > 3*int64(r.Elapsed) {
		t.Errorf("phase sum %v vs elapsed %v implausible", sum, int64(r.Elapsed))
	}
}

func TestExchangeRepeatsScaleLinearly(t *testing.T) {
	cls, _ := ClassByName("S")
	run := func(reps int) ExchangeResult {
		r, err := RunExchange(ExchangeConfig{
			Class:   cls,
			Threads: 8, PerNode: 2, Mode: ExPSHM, Repeats: reps, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	one, four := run(1), run(4)
	ratio := float64(four.Total) / float64(one.Total)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("4 repeats / 1 repeat = %.2f, want ~4", ratio)
	}
}

func TestMoreIterationsMoreTime(t *testing.T) {
	a := modelCfg(UPCProcesses, SplitPhase, 4, 2, 0)
	ra, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	// PerIter should be stable across the run (setup excluded).
	if d := float64(ra.PerIter)*float64(a.Class.Iters) - float64(ra.Elapsed); d > 1 || d < -float64(a.Class.Iters) {
		t.Errorf("PerIter*(iters) = %v vs elapsed %v", ra.PerIter*6, ra.Elapsed)
	}
}

func TestSMTThreadsSlowComputePhases(t *testing.T) {
	cls, _ := ClassByName("A") // NZ=128, NY=256: decomposes over 64 and 128
	full, err := Run(Config{Machine: topo.Lehman(), Class: cls, Variant: UPCProcesses,
		Threads: 64, PerNode: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	smt, err := Run(Config{Machine: topo.Lehman(), Class: cls, Variant: UPCProcesses,
		Threads: 128, PerNode: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 128 SMT threads over 64 cores: kernels gain only the SMT factor
	// (~1.2), far from 2x.
	gain := float64(full.Phases["fft2d"]) / float64(smt.Phases["fft2d"])
	if gain < 1.05 || gain > 1.35 {
		t.Errorf("SMT fft2d gain = %.2f, want ~1.2", gain)
	}
}
