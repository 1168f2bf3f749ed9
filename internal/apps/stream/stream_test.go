package stream

import (
	"runtime"
	"testing"
)

func TestTable31Shape(t *testing.T) {
	rs, err := Table31(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rs))
	}
	base, reloc, cast, omp := rs[0].GBps, rs[1].GBps, rs[2].GBps, rs[3].GBps
	t.Logf("Table 3.1: baseline=%.1f reloc=%.1f cast=%.1f openmp=%.1f GB/s",
		base, reloc, cast, omp)

	// Paper shape: baseline (3.2) << re-localization (7.2) << cast (23.2)
	// ≈ OpenMP (23.4).
	if !(base < reloc && reloc < cast) {
		t.Errorf("ordering violated: base=%.1f reloc=%.1f cast=%.1f", base, reloc, cast)
	}
	if cast/base < 4 {
		t.Errorf("cast/baseline = %.1f, paper shows ~7x", cast/base)
	}
	if reloc/base < 1.5 || reloc/base > 4.5 {
		t.Errorf("reloc/baseline = %.1f, paper shows ~2.3x", reloc/base)
	}
	if d := cast/omp - 1; d > 0.1 || d < -0.1 {
		t.Errorf("cast (%.1f) should match OpenMP (%.1f) within 10%%", cast, omp)
	}
	// Absolute calibration: cast should land near the 23 GB/s node
	// bandwidth, baseline in the low single digits.
	if cast < 18 || cast > 28 {
		t.Errorf("cast = %.1f GB/s, want ~23", cast)
	}
	if base < 1.5 || base > 6 {
		t.Errorf("baseline = %.1f GB/s, want ~3", base)
	}
}

func TestTable41Shape(t *testing.T) {
	rs, err := Table41(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("want 5 rows, got %d", len(rs))
	}
	byName := map[string]float64{}
	for _, r := range rs {
		byName[r.Name] = r.GBps
		t.Logf("Table 4.1: %-24s %.1f GB/s", r.Name, r.GBps)
	}
	full := byName["UPC 8"]
	omp := byName["OpenMP 8"]
	oneEight := byName["UPC*OpenMP 1*8 (unbound)"]
	twoFour := byName["UPC*OpenMP 2*4"]
	fourTwo := byName["UPC*OpenMP 4*2"]

	// Paper shape: 1×8 unbound achieves a little more than half of the
	// optimum; 2×4 and 4×2 bound match pure UPC/OpenMP.
	if ratio := oneEight / full; ratio < 0.4 || ratio > 0.65 {
		t.Errorf("1x8/full = %.2f, paper shows ~0.56", ratio)
	}
	for _, tc := range []struct {
		name string
		v    float64
	}{{"2*4", twoFour}, {"4*2", fourTwo}} {
		if r := tc.v / full; r < 0.9 || r > 1.1 {
			t.Errorf("%s should match pure UPC: %.1f vs %.1f", tc.name, tc.v, full)
		}
	}
	if r := omp / full; r < 0.85 || r > 1.1 {
		t.Errorf("OpenMP (%.1f) should be close to UPC (%.1f)", omp, full)
	}
	// Absolute: full-node bandwidth near 24 GB/s.
	if full < 20 || full > 28 {
		t.Errorf("UPC 8 = %.1f GB/s, want ~24.5", full)
	}
}

func TestTwistedSmallThreadCounts(t *testing.T) {
	// Odd thread counts: the last thread pairs with itself; must still
	// verify and not crash.
	r, err := RunTwisted(TwistedConfig{Threads: 3, ElemsPerThrd: 4096, Variant: Cast, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.GBps <= 0 {
		t.Errorf("bandwidth = %g", r.GBps)
	}
}

func TestHybridVerifiesData(t *testing.T) {
	r, err := RunHybrid(HybridConfig{UPCThreads: 2, SubThreads: 2, Bound: true,
		ElemsPerThrd: 8192, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.GBps <= 0 {
		t.Errorf("bandwidth = %g", r.GBps)
	}
}

func TestVariantStrings(t *testing.T) {
	want := []string{"UPC baseline", "UPC with re-localization", "UPC with cast", "OpenMP baseline"}
	for i, v := range Variants() {
		if v.String() != want[i] {
			t.Errorf("variant %d = %q, want %q", i, v.String(), want[i])
		}
	}
}

// TestDefaultSizeAllocatesLittle: at the default 1<<20 elements per
// thread the kernels compute and verify a slice of realPerThrd elements
// and only charge the rest, so a run allocates a few MB where full host
// arrays took hundreds.
func TestDefaultSizeAllocatesLittle(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() (Result, error)
	}{
		{"twisted relocalize", func() (Result, error) {
			return RunTwisted(TwistedConfig{Variant: Relocalize, Seed: 1})
		}},
		{"hybrid 2*4", func() (Result, error) {
			return RunHybrid(HybridConfig{UPCThreads: 2, SubThreads: 4, Bound: true, Seed: 1})
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("%s allocated %.1f MB", tc.name, mb)
		if mb >= 16 {
			t.Errorf("%s allocated %.1f MB, want < 16 MB", tc.name, mb)
		}
	}
}
